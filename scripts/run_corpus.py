#!/usr/bin/env python3
"""Run the CLI's analysis over every bundled corpus file and print one
summary row per input. Exits nonzero if any curvature balance breaks."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from hyperforman import NotRanked, filtration_balance
from hyperforman.cli import Analysis, build_parser


def analyse(name: str, path: Path) -> bool:
    """One row from the stages of ``hyperforman report <path>``."""
    a = Analysis(build_parser().parse_args(["report", str(path)]))
    ranked = "not-ranked" if isinstance(a.rank, NotRanked) else "ranked"
    chi = a.chi["delta"]
    row = f"{name:32s} {len(a.poset):3d} elements  {ranked:10s} chi={chi:3d}  "
    if a.loaded.kind == "hypernetwork":
        row += f"geometric={a.chi['geometric']:3d}  "
    residual = filtration_balance(a.degrees, a.curvature_counts, a.filtration).residual
    print(f"{row}residual={residual}")
    return residual == 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument(
        "--corpus-dir",
        type=Path,
        default=Path(__file__).resolve().parents[1] / "corpus",
    )
    args = ap.parse_args()

    ok = True
    for path in sorted(args.corpus_dir.rglob("*")):
        if path.suffix in (".json", ".hnet"):
            ok &= analyse(str(path.relative_to(args.corpus_dir)), path)
    if not ok:
        print("curvature balance FAILED on at least one input", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
