"""Byte-identical CLI output on the corpus.

``golden_outputs.json`` maps each case, keyed by its argv with the input
path relative to ``corpus/``, to the sha256 of its exit code, stdout and
stderr from an in-process ``cli.main`` run inside ``corpus/``. Any change
to what the CLI prints for these inputs fails here, naming each case.

Regenerate (only when an output change is intended) with
``PYTHONPATH=src python tests/test_golden.py``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from pathlib import Path

CORPUS_DIR = Path(__file__).resolve().parents[1] / "corpus"
GOLDEN = Path(__file__).resolve().parent / "golden_outputs.json"

OUTPUTS = ("human", "json", "csv")


def cases() -> list[tuple[str, ...]]:
    """Each corpus file under each (flags, subcommands) variant, in every
    output format; ``report`` prints JSON only, so it runs once per
    variant."""
    files = sorted(
        p.relative_to(CORPUS_DIR).as_posix()
        for p in CORPUS_DIR.rglob("*")
        if p.is_file()
    )
    out: list[tuple[str, ...]] = []
    for f in files:
        variants = [((), ("validate", "chi", "curvature", "gauss-bonnet", "filtrate"))]
        variants += [
            (flags, ("chi", "curvature"))
            for flags in (("--no-singletons",), ("--skeleton", "1"))
        ]
        if f.startswith("directed/"):
            variants += [
                (("--directed", "--degree", d, "--triangles", t), ("curvature",))
                for d in ("in", "out")
                for t in ("transitive", "cyclic")
            ]
        for flags, commands in variants:
            for cmd in commands:
                out += [(cmd, f, *flags, "--output", fmt) for fmt in OUTPUTS]
            out.append(("report", f, *flags))
    return out


def digest(argv: tuple[str, ...]) -> str:
    """sha256 of (exit code, stdout, stderr) of one run from ``corpus/``."""
    from hyperforman.cli import main

    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(CORPUS_DIR)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(list(argv))
            except SystemExit as ex:
                code = ex.code
    finally:
        os.chdir(cwd)
    blob = json.dumps([code, out.getvalue(), err.getvalue()])
    return hashlib.sha256(blob.encode()).hexdigest()


def test_cli_output_matches_golden():
    golden = json.loads(GOLDEN.read_text())
    table = {" ".join(argv): argv for argv in cases()}
    assert sorted(table) == sorted(golden), "case list differs from golden_outputs.json"
    differ = [key for key, argv in table.items() if digest(argv) != golden[key]]
    assert not differ, "CLI output changed for:\n" + "\n".join(differ)


def test_cli_output_builds_no_cover_pair_set(monkeypatch):
    """Every case whose input carries no ``covers`` array (which the
    loader checks against the pair set) prints the same with
    ``Poset.covers`` refused: the CLI reads the order only from the
    per-element store."""
    from hyperforman import Poset

    def refuse(self):
        raise AssertionError("Poset.covers was built")

    monkeypatch.setattr(Poset, "covers", property(refuse))
    golden = json.loads(GOLDEN.read_text())
    checked = [
        argv
        for argv in cases()
        if not argv[1].endswith(".json")
        or "covers" not in json.loads((CORPUS_DIR / argv[1]).read_text())
    ]
    differ = [argv for argv in checked if digest(argv) != golden[" ".join(argv)]]
    assert not differ, "CLI output changed for:\n" + "\n".join(map(" ".join, differ))

if __name__ == "__main__":
    table = {" ".join(argv): digest(argv) for argv in cases()}
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table)} cases to {GOLDEN}")
