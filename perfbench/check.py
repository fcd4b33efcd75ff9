"""Checks on the output of every CLI invocation the benchmark makes.

Each command's output is checked on its own (exit code, a zero
Gauss-Bonnet residual, every curvature edge ``ok``, report chi equal to
its f-vector's alternating sum) and then against the ``report`` output
for the same input (2-skeleton f-vector, chi). A failed check is never
retried: it counts once against ``failed``.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction


@dataclass
class Invocation:
    """One CLI call: its arguments, exit code, captured output and time."""

    command: str  # the workload's label for the command, e.g. "chi"
    input: str
    argv: list
    rc: int | None
    out: str
    err: str
    seconds: float
    warnings: int = 0
    cal: float = 0.0  # the speed calibration's time just before the call


_CHI_LINE = re.compile(r"chi\[(\w+)\] = (.+)$")
_FILTRATE_ROW = re.compile(r"threshold (-?\d+): f=\((\d+),(\d+),(\d+)\) chi=(-?\d+)$")
_VALIDATE = re.compile(
    r"(\d+) nodes?, (\d+) hypervert(?:ex|ices), (\d+) hyperedges?$"
)


def alternating_sum(f_vector) -> int:
    return sum((-1) ** d * n for d, n in enumerate(f_vector))


def _is_zero(text: str) -> bool:
    """Whether a printed exact number (``0``, ``0.0``, ``1/2``) is zero."""
    try:
        return Fraction(text) == 0
    except (ValueError, ZeroDivisionError):
        return False


def facts_validate(text: str, problems: list) -> dict:
    m = _VALIDATE.match(text.strip())
    if not m:
        problems.append("validate: unrecognised summary line")
        return {}
    nodes, hvs, hes = (int(g) for g in m.groups())
    return {"nodes": nodes, "hypervertices": hvs, "hyperedges": hes}


def facts_chi(text: str, problems: list) -> dict:
    values = {}
    for line in text.splitlines():
        m = _CHI_LINE.match(line)
        if not m:
            problems.append(f"chi: unrecognised line {line[:80]!r}")
            continue
        values[m.group(1)] = m.group(2)
    if not values:
        problems.append("chi: no values")
    return {"chi": values}


def facts_curvature(text: str, problems: list) -> dict:
    counts = {"edge": 0, "vertex": 0, "triangle": 0}
    for line in text.splitlines():
        kind = line.split(" ", 1)[0]
        if kind not in counts:
            problems.append(f"curvature: unrecognised line {line[:80]!r}")
            continue
        counts[kind] += 1
        if kind == "edge" and not line.endswith(" ok"):
            problems.append(f"curvature: edge row not ok: {line[:80]!r}")
    return {"skeleton": (counts["vertex"], counts["edge"], counts["triangle"])}


def facts_gauss_bonnet(text: str, problems: list) -> dict:
    fields = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if sep and key in ("chi", "residual"):
            fields[key] = value
    if not _is_zero(fields.get("residual", "")):
        problems.append(f"gauss-bonnet: residual {fields.get('residual')!r}, not 0")
    try:
        return {"skeleton_chi": int(fields["chi"])}
    except (KeyError, ValueError):
        problems.append("gauss-bonnet: no integer chi line")
        return {}


def facts_filtrate(text: str, problems: list) -> dict:
    lines = text.splitlines()
    m = _FILTRATE_ROW.match(lines[-1]) if lines else None
    if not m:
        problems.append("filtrate: last row unrecognised")
        return {}
    _, f0, f1, f2, chi = (int(g) for g in m.groups())
    if chi != f0 - f1 + f2:
        problems.append(f"filtrate: last row chi {chi} != {f0}-{f1}+{f2}")
    return {"skeleton": (f0, f1, f2), "skeleton_chi": chi}


def facts_report(text: str, problems: list) -> dict:
    try:
        obj = json.loads(text)
        f_vector = obj["complex"]["f_vector"]
        chi = obj["chi"]
        cur = obj["curvature"]
        skeleton = (len(cur["vertices"]), len(cur["edges"]), len(cur["triangles"]))
        elements = len(obj["poset"]["elements"])
        bad = [e["edge"] for e in cur["edges"] if not e["match"]]
        residual = cur["residual"]
        skeleton_chi = cur["chi"]
    except (ValueError, KeyError, TypeError) as ex:
        problems.append(f"report: malformed JSON ({ex})")
        return {}
    if "delta" in chi and chi["delta"] != alternating_sum(f_vector):
        problems.append(
            f"report: delta chi {chi['delta']} != alternating sum of {f_vector}"
        )
    if residual != 0:
        problems.append(f"report: residual {residual!r}, not 0")
    if bad:
        problems.append(f"report: {len(bad)} edge rows not matching, first {bad[0]}")
    if skeleton_chi != alternating_sum(skeleton):
        problems.append(f"report: 2-skeleton chi {skeleton_chi} != f-vector {skeleton}")
    return {
        "chi": {m: str(v) for m, v in chi.items() if isinstance(v, int)},
        "skeleton": skeleton,
        "skeleton_chi": skeleton_chi,
        "elements": elements,
        "f_vector": tuple(f_vector),
    }


FACTS = {
    "validate": facts_validate,
    "chi": facts_chi,
    "curvature": facts_curvature,
    "gauss-bonnet": facts_gauss_bonnet,
    "filtrate": facts_filtrate,
    "report": facts_report,
}


def check_invocation(inv: Invocation) -> tuple[list[str], dict]:
    """Problems found in one invocation on its own, and the facts read
    from its output for the cross-checks."""
    problems: list[str] = []
    if inv.rc != 0:
        problems.append(f"exit code {inv.rc}: {inv.err.strip()[:200]}")
        return problems, {}
    return problems, FACTS[inv.argv[0]](inv.out, problems)


def cross_check(facts: dict, reference: dict) -> list[str]:
    """Disagreements between one command's facts and the report's facts
    for the same input."""
    problems = []
    for key in ("skeleton", "skeleton_chi"):
        if key in facts and key in reference and facts[key] != reference[key]:
            problems.append(f"{key} {facts[key]} != report's {reference[key]}")
    for method, value in facts.get("chi", {}).items():
        expected = reference.get("chi", {}).get(method)
        if expected is not None and value != expected:
            problems.append(f"chi[{method}] {value} != report's {expected}")
    return problems


def check_pass(invocations: list[Invocation]) -> tuple[dict[int, list[str]], dict]:
    """Problems per invocation (by position) for one pass over a
    workload, and the facts read from each input's ``report`` output,
    which is the reference for the other commands on that input."""
    checked = [check_invocation(inv) for inv in invocations]
    reference = {
        inv.input: facts
        for inv, (_, facts) in zip(invocations, checked)
        if inv.argv[0] == "report"
    }
    problems_at = {}
    for i, (inv, (problems, facts)) in enumerate(zip(invocations, checked)):
        if inv.argv[0] != "report" and inv.input in reference:
            problems += cross_check(facts, reference[inv.input])
        if problems:
            problems_at[i] = problems
    return problems_at, reference
