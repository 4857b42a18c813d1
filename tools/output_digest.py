"""Print one SHA-256 per CLI call over a fixed list of calls, for comparing two checkouts.

Every call runs in process through ``qudual.cli.main``, against the ``src/``
of the checkout this script sits in. Each line holds the digest of the
call's exit code, stdout and stderr, then the exit code and the argument
vector, so the outputs of two checkouts compare with one ``diff``::

    python3 tools/output_digest.py > new.txt
    python3 /path/to/other/checkout/tools/output_digest.py > old.txt
    diff old.txt new.txt

``tools/output_digests.txt`` holds the digests of the current outputs, so one
checkout proves byte identity on its own::

    python3 tools/output_digest.py | diff tools/output_digests.txt -

The list: the first 5 rounds of the benchmark's seeded ``compute`` stream at
seeds 1-3, the ``compute --c`` calls of ``ROUNDING_EDGES``,
``CONDITIONING_EDGES`` and ``ZERO_SIGN_EDGES``, ``sweep`` of both figures at 2001 points, ``verify``
at both levels for seeds 1-10, 42, 343578368, 11705 and 1796, ``verify --selftest-corrupt``
at both levels, and ``mc`` at three settings for each of ``MC_SHOTS``. It
takes a few seconds.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

COMPUTE_SEEDS = (1, 2, 3)
COMPUTE_ROUNDS = 5
# 343578368 FAILed at full when the counts were counted uniforms and passes on
# the drawn counts; 11705 is the first seed from 1 whose full report FAILs on a
# correct sampler, and 1796 the only seed from 1 to 2000 whose fast report does.
VERIFY_SEEDS = (*range(1, 11), 42, 343578368, 11705, 1796)
MC_SETTINGS = (
    ("--w-plus", "0.9", "--theta", "0.3", "--seed", "42"),
    ("--w-plus", "0.2", "--theta", "1.7", "--seed", "7"),
    ("--w-plus", "0.7", "--theta", "4.0", "--c", "0.35", "--varrho", "2.5", "--seed", "343578368"),
)
# Three sizes for the readout counts, and so three n // 16 shots per fringe point.
MC_SHOTS = ("100000", "65537", "200003")
# (w_plus, theta, c) of compute --c calls whose printed D pins linalg._hypot's
# rounding. The first six were picked when D was the trace norm of the meter
# blocks and V_e twice a modulus of the partial trace, where np.hypot or
# NumPy's complex abs moved the last printed digit; D is now the closed form
# hypot(P, V sqrt(1 - c**2)) through linalg._hypot and V_e = c V, and at those
# six np.hypot and a plain sqrt(P*P + y*y) print the same D as _hypot. The last
# six come from a seeded scan of 20000 states: at each, the D of np.hypot and
# that of the plain root both print otherwise than _hypot's, so a _hypot or
# _dot that loses a term of the residual r / 2h changes their digests.
ROUNDING_EDGES = (
    ("0.288792", "2.2086", "0.774382"),
    ("0.418558", "0.551", "0.747826"),
    ("0.321433", "1.8208", "0.670108"),
    ("0.178935", "3.9675", "0.467268"),
    ("0.277899", "1.4033", "0.525817"),
    ("0.430912", "4.1117", "0.01284"),
    ("0.299693", "5.9041", "0.41138"),
    ("0.946905", "2.9974", "0.816248"),
    ("0.408875", "1.3504", "0.481923"),
    ("0.396733", "1.875", "0.935829"),
    ("0.031992", "4.0765", "0.979562"),
    ("0.962266", "0.2953", "0.624517"),
)
# compute calls whose printed digits depend on the form of a closed form:
# w_plus one ulp below 1/2, where sqrt(1 - 4 w+ w-) cancels to 0 but
# |2 w+ - 1| does not; c one part in 1e9 below 1, where 1 - c*c and
# (1 - c)(1 + c) differ in the 10th digit; and the state whose c_opt moves
# most between those two forms of P.
CONDITIONING_EDGES = (
    ("compute", "--w-plus", "0.49999999999999989", "--pure", "--c", "0.5"),
    ("compute", "--w-plus", "0.9", "--pure", "--theta", "0.3", "--c", "0.999999999"),
    ("compute", "--w-plus", "0.5001147906073556", "--pure", "--theta", "0.04722784725952158",
     "--c", "0.33351442252195146"),
)


# compute calls of pure states at the ends of each range, where a zero part of
# a phase factor, a basis entry or an amplitude may carry either sign: w_plus
# at 0, 1/2 and 1, theta and varrho at 0 and pi/2, and c at 0, 1e-150, one ulp
# below 1 and 1. A one-state kernel on Python floats must round and sign its
# zeros as the stacked kernel does on each element.
HALF_PI = "1.5707963267948966"
ZERO_SIGN_EDGES = (
    ("0", "0", "0", "0"),
    ("1", HALF_PI, "0", "1"),
    ("0", HALF_PI, HALF_PI, "1e-150"),
    ("1", "0", HALF_PI, "0.99999999999999989"),
    ("0.5", "0", "0", "0"),
    ("0.5", HALF_PI, "0", "1"),
    ("0.5", "0", HALF_PI, "1e-150"),
    ("0.5", HALF_PI, HALF_PI, "0.99999999999999989"),
)


def calls() -> list[tuple[str, ...]]:
    """The fixed list of argument vectors, in the order they run."""
    from benchmark import workloads

    argvs: list[tuple[str, ...]] = []
    for seed in COMPUTE_SEEDS:
        for ops in itertools.islice(workloads.rounds("compute", seed), COMPUTE_ROUNDS):
            argvs += [op.argv for op in ops]
    argvs += [("compute", "--w-plus", w, "--pure", "--theta", theta, "--c", c) for w, theta, c in ROUNDING_EDGES]
    argvs += CONDITIONING_EDGES
    argvs += [
        ("compute", "--w-plus", w, "--pure", "--theta", theta, "--varrho", varrho, "--c", c)
        for w, theta, varrho, c in ZERO_SIGN_EDGES
    ]
    argvs += [("sweep", "--figure", figure, "--points", "2001") for figure in ("1", "3")]
    for level in ("fast", "full"):
        argvs += [("verify", "--level", level, "--seed", str(seed)) for seed in VERIFY_SEEDS]
        argvs.append(("verify", "--level", level, "--selftest-corrupt"))
    argvs += [("mc", "--n", n, *setting) for n in MC_SHOTS for setting in MC_SETTINGS]
    return argvs


def run(argv: tuple[str, ...]) -> tuple[int, str]:
    """Exit code and hex digest of one in-process call."""
    from qudual.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse usage errors and --help
            code = exc.code if isinstance(exc.code, int) else 2
    blob = f"{code}\0{out.getvalue()}\0{err.getvalue()}".encode()
    return code, hashlib.sha256(blob).hexdigest()


def main() -> int:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    os.environ.pop("QUDUAL_SEED", None)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    for argv in calls():
        code, digest = run(argv)
        print(f"{digest}  {code}  {' '.join(argv)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
