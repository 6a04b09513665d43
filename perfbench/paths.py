"""Locate the checkout and make its ``src`` importable ahead of any installed copy."""

from __future__ import annotations

import pathlib
import sys

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"


def use_checkout_sources() -> None:
    """Put the checkout's ``src`` first on ``sys.path``; fail if it is absent.

    The benchmark measures the program in the checkout it sits in, so it
    never falls back to a copy of degenforge installed elsewhere.
    """
    if not (SRC / "degenforge" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no degenforge sources under {SRC}")
    for entry in (str(SRC), str(ROOT)):
        if entry not in sys.path:
            sys.path.insert(0, entry)
    import degenforge

    where = pathlib.Path(degenforge.__file__).resolve()
    if SRC not in where.parents:
        raise SystemExit(f"perfbench: degenforge imported from {where}, not from {SRC}")
