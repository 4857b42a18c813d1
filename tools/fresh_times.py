"""Time the commands of two checkouts in fresh processes, in alternating pairs.

Each run is a new interpreter that imports ``qudual`` from a copy of one
checkout's ``src/``, and its wall time runs from spawn to exit. The pairs
alternate which side runs first. Usage::

    python3 tools/fresh_times.py BASE NEW [--pairs N]

``BASE`` and ``NEW`` are checkout roots. The commands are ``import``
(``-c "import qudual.cli"``), ``compute``, ``sweep`` (``--points 2001``),
``mc`` and ``verify`` (``--level fast``). Each runs twice over: with
bytecode writing off (``PYTHONDONTWRITEBYTECODE=1`` and no ``__pycache__``,
as in a fresh checkout, so every run compiles ``qudual``) and on (after one
unmeasured run has written the bytecode). Each setting and command prints
one line::

    <bytecode> <command> base <median> [<q1>, <q3>] new <median> [<q1>, <q3>] <change> % won <k>/<pairs>

in milliseconds, where the change is that of the medians and ``won`` counts
the pairs in which the new side ran faster. The checkouts are not written to.
"""

from __future__ import annotations

import argparse
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

COMMANDS = {
    "import": ["-c", "import qudual.cli"],
    "compute": ["-m", "qudual", "compute", "--w-plus", "0.3", "--pure", "--c", "0.6"],
    "sweep": ["-m", "qudual", "sweep", "--figure", "1", "--points", "2001"],
    "mc": ["-m", "qudual", "mc"],
    "verify": ["-m", "qudual", "verify", "--level", "fast"],
}


def run_seconds(src: Path, args: list[str], bytecode: bool) -> float:
    """The wall time of ``python args`` in a fresh process that imports ``qudual`` from ``src``."""
    env = {key: value for key, value in os.environ.items() if key not in ("QUDUAL_SEED", "PYTHONDONTWRITEBYTECODE")}
    env["PYTHONPATH"] = str(src)
    if not bytecode:
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    start = time.perf_counter()
    subprocess.run([sys.executable, *args], env=env, stdout=subprocess.DEVNULL, check=True)
    return time.perf_counter() - start


def quartiles(times: list[float]) -> tuple[float, float, float]:
    """Median and the first and third quartiles of ``times``, in milliseconds."""
    ms = [1e3 * t for t in times]
    if len(ms) == 1:
        return ms[0], ms[0], ms[0]
    q1, median, q3 = statistics.quantiles(ms, n=4, method="inclusive")
    return median, q1, q3


def compare(roots: tuple[Path, Path], pairs: int, commands: list[str], scratch: Path):
    """Yield one line per bytecode setting and command, in the form of the module docstring."""
    for bytecode in (False, True):
        # A copy of each side's package, fresh for each setting: no bytecode is read that the setting did not write.
        sources = []
        for side, root in zip(("base", "new"), roots):
            src = scratch / f"{side}-{'on' if bytecode else 'off'}"
            shutil.copytree(root / "src" / "qudual", src / "qudual", ignore=shutil.ignore_patterns("__pycache__"))
            sources.append(src)
        for name in commands:
            if bytecode:
                for src in sources:
                    run_seconds(src, COMMANDS[name], bytecode)
            times = ([], [])
            for i in range(pairs):
                for side in ((0, 1) if i % 2 == 0 else (1, 0)):
                    times[side].append(run_seconds(sources[side], COMMANDS[name], bytecode))
            (base, b1, b3), (new, n1, n3) = quartiles(times[0]), quartiles(times[1])
            won = sum(n < b for b, n in zip(*times))
            yield (
                f"{'on' if bytecode else 'off'} {name} base {base:.1f} [{b1:.1f}, {b3:.1f}] "
                f"new {new:.1f} [{n1:.1f}, {n3:.1f}] {100.0 * (new / base - 1.0):+.1f} % won {won}/{pairs}"
            )


def main(argv: list[str]) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="fresh_times-") as scratch:
        for line in compare((args.base, args.new), args.pairs, list(COMMANDS), Path(scratch)):
            print(line, flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
