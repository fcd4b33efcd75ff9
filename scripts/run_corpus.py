#!/usr/bin/env python3
"""Run the full pipeline over every bundled corpus file and print one
summary row per input. Exits nonzero if any curvature balance breaks."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from hyperforman import (
    NotRanked,
    gauss_bonnet,
    geometric_euler_characteristic,
    order_complex,
    parse,
    poset_from_hypernetwork,
)
from hyperforman.cli import _poset_from_json_obj


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
        data = path.read_bytes()
        if path.suffix == ".hnet":
            ok &= analyse_network(name, parse(data, "text"))
            continue
        obj = json.loads(data)
        if "elements" in obj and "hypervertices" not in obj:
            ok &= analyse_poset(name, _poset_from_json_obj(obj))
        else:
            ok &= analyse_network(name, parse(data, "json"))
    if not ok:
        print("curvature balance FAILED on at least one input", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
