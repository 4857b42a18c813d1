"""Command line front end.

Subcommands:

``compute``
    Closed-form report for one state: duality quantities, complementary
    family members, moments, the variance bound, and (given an overlap
    ``--c``) the entangled-readout quantities.
``sweep``
    CSV sweep of the duality and product curves over populations
    parameterized by an angle so both ends are sampled evenly.
``verify``
    Deterministic self-check suites (fast or full).
``mc``
    Sampling oracle comparison for one configuration.

Exit codes: 0 success, 1 failed checks or flagged samples, 2 invalid
parameters, 3 unwritable output path, 4 standard output closed by its
reader (a broken pipe; a command that finished and returned 1 still exits
1). The seed for ``verify`` and ``mc`` resolves from ``--seed``, then the
``QUDUAL_SEED`` environment variable, then 42.

:func:`main` parses the arguments after a command name with that command's
own parser, the call argparse's subcommand action makes. The top-level parse
runs only where it answers otherwise: with no command name first, or with
arguments the command leaves over. So help, usage errors and exit codes are
those of the two-level parse, byte for byte. Each command builds its whole
output and writes it with one ``sys.stdout.write`` inside :func:`main`'s
``try``, where a closed pipe is caught. In process, on a shared 2-vCPU
machine (Python 3.11, NumPy 2.4), ``compute --w-plus 0.3 --pure --theta 0.4
--c 0.6`` takes about 132 us, against 170 us with the two-level parse, 29
``print`` calls and ``mean_var`` beside ``robertson``; ``mc --n 10000000``
takes about 264 us, against 284 us.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from dataclasses import replace

import numpy as np

from .duality import family_duality, predictability, visibility
from .errors import ParameterError, QudualError, check_scalar
from .simultaneous import (
    EntangledState,
    distinguishability,
    entangled_visibility,
    estimate_a,
    estimate_b,
    optimal_entanglement,
    simultaneous_product,
)
from .states import REFERENCE, DensityMatrix, complementary_observable, pure_state
from .uncertainty import normalized_product_bounds, robertson

CSV_HEADER = "w_plus,P,V,product_min,product_max,D,V_e,c_opt,sim_product_min"

# Largest sweep: every row, about 0.6 kB of text, is built before any is written.
MAX_SWEEP_POINTS = 10**5

_EXIT_OK = 0
_EXIT_CHECK_FAILED = 1
_EXIT_BAD_PARAMS = 2
_EXIT_UNWRITABLE = 3
_EXIT_CLOSED_PIPE = 4

__all__ = ["main", "CSV_HEADER", "MAX_SWEEP_POINTS"]


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _resolve_seed(arg_seed: int | None) -> int:
    if arg_seed is not None:
        return arg_seed
    env = os.environ.get("QUDUAL_SEED")
    if env is None:
        return 42
    try:
        return int(env)
    except ValueError:
        raise ParameterError(f"QUDUAL_SEED must be an integer, got {env!r}")


def _cmd_compute(args: argparse.Namespace) -> int:
    if args.pure and args.rho12 is not None:
        raise ParameterError("give either --rho12 or --pure, not both")
    if args.pure:
        rho = pure_state(args.w_plus, args.theta)
    elif args.rho12 is not None:
        rho = DensityMatrix(args.w_plus, args.rho12, args.theta)
    else:
        raise ParameterError("one of --rho12 or --pure is required")
    varrho = rho.theta if args.varrho is None else args.varrho

    p, v = predictability(rho), visibility(rho)
    b_obs = complementary_observable(varrho)
    p_b, v_b = family_duality(rho, varrho)
    bound = robertson(rho, REFERENCE, b_obs)
    lo, hi = normalized_product_bounds(rho.w_plus)

    pairs = [
        ("w_plus", rho.w_plus),
        ("rho12", rho.rho12),
        ("theta", rho.theta),
        ("purity", rho.purity),
        ("P", p),
        ("V", v),
        ("P2_plus_V2", p * p + v * v),
        ("varrho", varrho),
        ("P_B", p_b),
        ("V_B", v_b),
        ("mean_A", bound.mean_a),
        ("var_A", bound.var_a),
        ("mean_B", bound.mean_b),
        ("var_B", bound.var_b),
        ("robertson_lhs", bound.lhs),
        ("robertson_rhs", bound.rhs),
        ("robertson_slack", bound.slack),
        ("product_min", lo),
        ("product_max", hi),
    ]

    if args.c is not None:
        if not rho.is_pure():
            raise ParameterError("--c models meter entanglement of a pure state; drop --rho12 mixing or pass --pure")
        psi = EntangledState(rho.w_plus, rho.theta, args.c)
        pairs += [
            ("c", args.c),
            ("D", distinguishability(psi)),
            ("V_e", entangled_visibility(psi)),
        ]
        if 0.0 < args.c < 1.0:
            mean_ar, var_ar = estimate_a(psi)
            mean_br, var_br = estimate_b(psi, varrho)
            pairs += [
                ("mean_A_readout", mean_ar),
                ("var_A_readout", var_ar),
                ("mean_B_readout", mean_br),
                ("var_B_readout", var_br),
            ]
        c_opt = optimal_entanglement(rho.w_plus)
        pairs += [
            ("sim_product", simultaneous_product(rho.w_plus, args.c)),
            ("c_opt", c_opt),
            ("sim_product_min", simultaneous_product(rho.w_plus, c_opt)),
        ]

    width = max(len(k) for k, _ in pairs)
    sys.stdout.write("".join(f"{key:<{width}}  {_fmt(value)}\n" for key, value in pairs))
    return _EXIT_OK


def _sweep_rows(figure: int, points: int) -> list[str]:
    w = np.array([math.sin(alpha) ** 2 for alpha in np.linspace(0.0, math.pi / 2.0, points).tolist()])
    c_opt = optimal_entanglement(w)
    rho, psi = pure_state(w), EntangledState(w, 0.0, 1.0 if figure == 1 else c_opt)
    p, v, d, ve = predictability(rho), visibility(rho), distinguishability(psi), entangled_visibility(psi)
    columns = (w, p, v, *normalized_product_bounds(w), d, ve, c_opt, simultaneous_product(w, c_opt))
    return [",".join(map(_fmt, row)) for row in zip(*(x.tolist() for x in columns))]


def _cmd_sweep(args: argparse.Namespace) -> int:
    check_scalar(args.points, "--points", 2, MAX_SWEEP_POINTS)
    rows = _sweep_rows(args.figure, args.points)
    text = CSV_HEADER + "\n" + "\n".join(rows) + "\n"
    if args.out is not None:
        try:
            # newline='' plus explicit \n keeps line endings LF on every platform
            with open(args.out, "w", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
            return _EXIT_UNWRITABLE
        print(f"wrote {args.points} rows to {args.out}")
    else:
        sys.stdout.write(text)
    return _EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    from .verify import render_report, run_suites

    seed = _resolve_seed(args.seed)
    results = run_suites(args.level, seed, corrupt=args.selftest_corrupt)
    sys.stdout.write(render_report(results, args.level, seed))
    failures = sum(r.failures for r in results)
    return _EXIT_OK if failures == 0 else _EXIT_CHECK_FAILED


def _cmd_mc(args: argparse.Namespace) -> int:
    from .montecarlo import sample_fringe, sample_sharp, sample_simultaneous

    seed = _resolve_seed(args.seed)
    varrho = args.theta if args.varrho is None else args.varrho
    rho = pure_state(args.w_plus, args.theta)
    c = args.c
    if c is None:
        c = optimal_entanglement(rho.w_plus)
        if c in (0.0, 1.0):
            raise ParameterError(
                f"--c defaults to the optimal overlap, c = {c!r} at w_plus = {rho.w_plus!r}, "
                "where the meter readout is singular (it requires 0 < c < 1); pass --c"
            )
    b_obs = complementary_observable(varrho)
    psi = EntangledState(rho.w_plus, args.theta, c)

    # Draw every sample before writing, so a failed run writes no stdout; the
    # joint readout goes first because it rejects a singular overlap. Each
    # sampler has its own stream of the seed: 1, 2, 3, and 4 for the scan.
    joint = sample_simultaneous(psi, varrho, args.n, seed, stream=3)
    reports = [
        replace(sample_sharp(rho, REFERENCE, args.n, seed, stream=1), quantity="sharp_a"),
        replace(sample_sharp(rho, b_obs, args.n, seed, stream=2), quantity="sharp_b"),
        *joint,
    ]
    v_hat = sample_fringe(rho, max(args.n // 16, 1), seed, stream=4)

    lines = [
        f"sampling at w_plus={_fmt(rho.w_plus)} theta={_fmt(args.theta)} varrho={_fmt(varrho)} c={_fmt(c)} seed={seed}",
        *(
            f"{rep.quantity:<10} n={rep.n} "
            f"mean={_fmt(rep.empirical_mean)} (analytic {_fmt(rep.analytic_mean)}, z={rep.z_mean:+.3f}) "
            f"var={_fmt(rep.empirical_variance)} (analytic {_fmt(rep.analytic_variance)}, z={rep.z_variance:+.3f})"
            f"{' FLAGGED' if rep.flagged else ''}{' degenerate' if rep.degenerate else ''}"
            for rep in reports
        ),
        f"fringe     contrast={_fmt(v_hat)} (analytic {_fmt(visibility(rho))})",
    ]
    sys.stdout.write("\n".join(lines) + "\n")

    flagged = any(rep.flagged for rep in reports)
    return _EXIT_CHECK_FAILED if flagged else _EXIT_OK


@functools.cache
def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The argument parser and its command parsers by name, built on the first call and shared by every later one."""
    parser = argparse.ArgumentParser(
        prog="qudual",
        description="Two-path state duality, variance bounds, and unsharp joint readout.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="closed-form report for one state")
    p.add_argument("--w-plus", type=float, required=True, help="population of the + path")
    p.add_argument("--rho12", type=float, default=None, help="off-diagonal magnitude")
    p.add_argument("--pure", action="store_true", help="use the largest coherence allowed by w-plus")
    p.add_argument("--theta", type=float, default=0.0, help="off-diagonal phase")
    p.add_argument("--varrho", type=float, default=None, help="family phase; defaults to theta (the proper choice)")
    p.add_argument("--c", type=float, default=None, help="meter overlap; adds the entangled-readout block")
    p.set_defaults(fn=_cmd_compute)

    p = sub.add_parser("sweep", help="write the duality and product curves as CSV")
    p.add_argument("--figure", type=int, choices=(1, 3), required=True,
                   help="1: full entanglement column (c=1); 3: optimal overlap column")
    p.add_argument("--points", type=int, default=201, help="number of sweep points")
    p.add_argument("--out", type=str, default=None, help="output path; stdout when omitted")
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("verify", help="run the deterministic self-check suites")
    p.add_argument("--level", choices=("fast", "full"), default="fast")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--selftest-corrupt", action="store_true", help=argparse.SUPPRESS)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("mc", help="compare sampled moments against the closed forms")
    p.add_argument("--w-plus", type=float, default=0.9)
    p.add_argument("--theta", type=float, default=0.3)
    p.add_argument("--varrho", type=float, default=None, help="family phase; defaults to theta")
    p.add_argument("--c", type=float, default=None, help="meter overlap; defaults to the optimal one")
    p.add_argument("--n", type=int, default=100000)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(fn=_cmd_mc)

    return parser, dict(sub.choices)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser, commands = _build_parser()
    # A command's own parser takes the rest, as argparse's subcommand action hands it over. Without a command name
    # first, or with arguments left over, the top-level parse runs, for its own help, usage and error text.
    command = commands.get(argv[0]) if argv else None
    args, extras = command.parse_known_args(argv[1:], None) if command else (None, True)
    args = parser.parse_args(argv) if extras else args
    code = _EXIT_OK
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except QudualError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_BAD_PARAMS
    except BrokenPipeError:
        # The reader is gone: point stdout at devnull, so that the interpreter's flush at exit cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        # A command that finished and found a failure keeps its code; the pipe only cut its output short.
        return code or _EXIT_CLOSED_PIPE


if __name__ == "__main__":
    sys.exit(main())
