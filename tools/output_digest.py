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
seeds 1-3, ``sweep`` of both figures at 2001 points, ``verify`` at both
levels for seeds 1-10, 42 and 343578368, ``verify --selftest-corrupt`` at
both levels, and ``mc --n 100000`` at three settings. It takes about a minute.
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
VERIFY_SEEDS = (*range(1, 11), 42, 343578368)
MC_SETTINGS = (
    ("--w-plus", "0.9", "--theta", "0.3", "--seed", "42"),
    ("--w-plus", "0.2", "--theta", "1.7", "--seed", "7"),
    ("--w-plus", "0.7", "--theta", "4.0", "--c", "0.35", "--varrho", "2.5", "--seed", "343578368"),
)


def calls() -> list[tuple[str, ...]]:
    """The fixed list of argument vectors, in the order they run."""
    from benchmark import workloads

    argvs: list[tuple[str, ...]] = []
    for seed in COMPUTE_SEEDS:
        for ops in itertools.islice(workloads.rounds("compute", seed), COMPUTE_ROUNDS):
            argvs += [op.argv for op in ops]
    argvs += [("sweep", "--figure", figure, "--points", "2001") for figure in ("1", "3")]
    for level in ("fast", "full"):
        argvs += [("verify", "--level", level, "--seed", str(seed)) for seed in VERIFY_SEEDS]
        argvs.append(("verify", "--level", level, "--selftest-corrupt"))
    argvs += [("mc", "--n", "100000", *setting) for setting in MC_SETTINGS]
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
