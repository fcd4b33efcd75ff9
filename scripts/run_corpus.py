#!/usr/bin/env python3
"""Run the full pipeline over every bundled corpus file and print one
summary row per input. Exits nonzero if any curvature balance breaks."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from hyperforman import (
    NotRanked,
    gauss_bonnet,
    geometric_euler_characteristic,
    order_complex,
    poset_from_hypernetwork,
)
from hyperforman.cli import load_input


def euler_characteristic(p) -> int:
    """Alternating sum of the counted f-vector; no chain is listed."""
    return sum((-1) ** i * f for i, f in enumerate(p.chain_counts()))


def analyse_poset(name: str, p) -> bool:
    report = gauss_bonnet(order_complex(p, skeleton_dim=2))
    rf = p.rank_function()
    ranked = "not-ranked" if isinstance(rf, NotRanked) else "ranked"
    print(
        f"{name:32s} {len(p):3d} elements  {ranked:10s} "
        f"chi={euler_characteristic(p):3d}  residual={report.residual}"
    )
    return report.residual == 0


def analyse_network(name: str, h) -> bool:
    p = poset_from_hypernetwork(h)
    report = gauss_bonnet(order_complex(p, skeleton_dim=2))
    rf = p.rank_function()
    ranked = "not-ranked" if isinstance(rf, NotRanked) else "ranked"
    geo = geometric_euler_characteristic(h)
    print(
        f"{name:32s} {len(p):3d} elements  {ranked:10s} "
        f"chi={euler_characteristic(p):3d}  geometric={geo:3d}  "
        f"residual={report.residual}"
    )
    return report.residual == 0


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
        if path.suffix not in (".json", ".hnet"):
            continue
        name = str(path.relative_to(args.corpus_dir))
        loaded = load_input(path, "auto")
        if loaded.kind == "poset":
            ok &= analyse_poset(name, loaded.poset)
        else:
            ok &= analyse_network(name, loaded.network)
    if not ok:
        print("curvature balance FAILED on at least one input", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
