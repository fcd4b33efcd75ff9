"""Benchmark of the hyperforman CLI on seeded wide, deep and dense inputs.

Run from the repository root:

    python3 perfbench/run.py --workload wide --seed 1 --seconds 35 --trace 0

Each run starts fresh child processes one at a time (see child.py):
several that only set up, for the set-up time, then one that also
measures. It prints the realised input sizes, a sha256 per command, and
every metric by name with its unit; the last line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1``
the per-layer ones from a traced run. End-to-end times are scaled to a
reference machine speed (see speed.py).
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from gen import WORKLOADS
from speed import at_reference_speed, calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 7
DEADLINE_S = 170.0
# the end-to-end time metric of each CLI subcommand
COMMAND_METRICS = {
    "chi": "chi_s",
    "curvature": "curvature_s",
    "gauss-bonnet": "gauss_bonnet_s",
    "filtrate": "filtrate_s",
    "report": "report_s",
}
END_TO_END_UNITS = {
    "setup_s": "s",
    **{m: "s" for m in COMMAND_METRICS.values()},
    "mix_s": "s",
    "peak_rss_mb": "MB",
}
LAYER_UNITS = {
    "poset.build_s": "s",
    "poset.build_calls": "count",
    "poset.elements": "count",
    "poset.covers": "count",
    "poset.comparable_pairs": "count",
    "poset.rank_s": "s",
    "complexes.order_complex_s": "s",
    "complexes.order_complex_calls": "count",
    "complexes.chains_emitted": "count",
    "complexes.skeleton_s": "s",
    "complexes.edges": "count",
    "complexes.triangles": "count",
    "complexes.useful_ratio": "ratio",
    "complexes.truncation_warnings": "count",
    "curvature.gauss_bonnet_s": "s",
    "curvature.filtration_s": "s",
    "curvature.filtration_steps": "count",
    "curvature.filtration_tri_checks": "count",
    "curvature.ricci_evals": "count",
    "curvature.ricci_evals_per_edge": "ratio",
    "curvature.term_calls_s": "s",
    "hypernet.parse_s": "s",
    "hypernet.geometric_chi_s": "s",
    "hypernet.generators": "count",
    "cli.load_s": "s",
    "cli.self_s": "s",
    "cli.output_bytes": "bytes",
    "trace.overhead_ratio": "ratio",
}


class ChildFailed(RuntimeError):
    pass


def start_child(workdir: Path, args, mode: str, deadline: float) -> tuple[subprocess.Popen, float]:
    """Start one child and wait for its READY line; returns the process
    and its set-up time (start to READY) at the reference speed."""
    env = {k: v for k, v in os.environ.items() if k != "HYPERFORMAN_CHAIN_CAP"}
    cal = calibrate()
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), str(workdir), args.workload,
         str(args.seed), str(args.seconds), str(args.trace), mode],
        stdout=subprocess.PIPE, env=env, cwd=ROOT,
    )
    try:
        ready, _, _ = select.select([proc.stdout], [], [], max(deadline - time.perf_counter(), 0))
        line = proc.stdout.readline() if ready else b""
    except BaseException:
        stop(proc)
        raise
    setup = time.perf_counter() - start
    if line != b"READY\n":
        stop(proc)
        raise ChildFailed(f"{mode} child did not get ready (exit {proc.returncode})")
    return proc, at_reference_speed(setup, cal)


def stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()
    proc.stdout.close()


def finish(proc: subprocess.Popen, deadline: float) -> None:
    try:
        proc.wait(timeout=max(deadline - time.perf_counter(), 0))
    except subprocess.TimeoutExpired:
        raise ChildFailed("child ran past the deadline")
    finally:
        stop(proc)
    if proc.returncode != 0:
        raise ChildFailed(f"child exited with {proc.returncode}")


def set_up_only(workdir: Path, args, deadline: float) -> float:
    proc, seconds = start_child(workdir, args, "setup", deadline)
    finish(proc, deadline)
    return seconds


def tail_percentile(samples: list[float]) -> str:
    """The highest of p50/p90/p99 with at least ten samples beyond it."""
    n = len(samples)
    for p in (99, 90, 50):
        if n * (100 - p) / 100 >= 10:
            value = statistics.quantiles(samples, n=100, method="inclusive")[p - 1]
            return f"p{p} {value:.4f} s"
    return "no percentile has ten samples beyond it"


def median_of_passes(passes: list[dict], command: str) -> float:
    """Each input's median time for ``command`` over the passes, at the
    reference speed, summed over the inputs."""
    per_input = zip(*(p["samples"][command] for p in passes))
    return sum(statistics.median(times) for times in per_input)


def end_to_end(result: dict, setups: list[float]) -> tuple[dict, list[str]]:
    passes = [p for p in result["passes"] if not p["traced"]]
    values: dict[str, float] = {"setup_s": statistics.median(setups)}
    notes = [f"setup_s: median of {len(setups)} child starts, at the reference speed"]
    for command in passes[0]["samples"]:
        metric = COMMAND_METRICS[command.split()[0]]
        wall = [sum(p["wall"][command]) for p in passes]
        per_call = [s for p in passes for s in p["samples"][command]]
        values[metric] = median_of_passes(passes, command)
        notes.append(
            f"{metric} ({command}): {len(passes)} passes, median wall time of a pass "
            f"{statistics.median(wall):.4f} s; at the reference speed, per invocation "
            f"n={len(per_call)}, median {statistics.median(per_call):.4f} s, "
            f"{tail_percentile(per_call)}"
        )
    values["mix_s"] = sum(values[m] for m in COMMAND_METRICS.values())
    values["peak_rss_mb"] = result["peak_rss_mb"]
    return {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}, notes


def median_mix(passes: list[dict]) -> float:
    return sum(median_of_passes(passes, c) for c in passes[0]["samples"])


def per_layer(result: dict) -> dict:
    plain = [p for p in result["passes"] if not p["traced"]]
    traced = [p for p in result["passes"] if p["traced"]]
    values = {
        name: statistics.median(p["layers"][name] for p in traced)
        for name in traced[0]["layers"]
    }
    values["trace.overhead_ratio"] = median_mix(traced) / median_mix(plain)
    return {k: {"value": values[k], "unit": u} for k, u in LAYER_UNITS.items()}


def keep_spans(workdir: Path, args) -> list[str]:
    """Move the traced run's spans to .perfbench_trace/ and summarise
    their self times per span name, per traced pass."""
    lines = []
    spans = workdir / "spans.jsonl"
    if spans.exists():
        kept = ROOT / ".perfbench_trace" / f"{args.workload}-seed{args.seed}.jsonl"
        kept.parent.mkdir(exist_ok=True)
        shutil.move(spans, kept)
        rows = [json.loads(line) for line in kept.read_text().splitlines()]
        passes = len({r["pass"] for r in rows})
        own: dict[str, float] = {}
        for r in rows:
            own[r["name"]] = own.get(r["name"], 0.0) + r["self"]
        lines.append(f"spans: {len(rows)} in {kept.relative_to(ROOT)}")
        lines += [
            f"self time per traced pass: {name} {total / passes:.4f} s"
            for name, total in sorted(own.items(), key=lambda kv: -kv[1])
        ]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "hyperforman" / "cli.py").is_file():
        print(f"error: no hyperforman sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # on SIGTERM, unwind so that the running child is stopped and the
    # work directory removed
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    deadline = time.perf_counter() + DEADLINE_S
    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True)
    try:
        # set-up samples before and after the measuring child, so that
        # their median does not hang on one moment's machine load
        setups = [set_up_only(workdir, args, deadline) for _ in range(SETUP_SAMPLES // 2)]
        proc, seconds = start_child(workdir, args, "measure", deadline)
        setups.append(seconds)
        finish(proc, deadline)
        setups += [set_up_only(workdir, args, deadline) for _ in range(SETUP_SAMPLES // 2)]
        result = json.loads((workdir / "result.json").read_text())
        span_notes = keep_spans(workdir, args)
    except ChildFailed as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    for s in result["sizes"]:
        print("size " + " ".join(f"{k}={v}" for k, v in s.items()))
    for command, digest in result["sha256"].items():
        print(f"sha256 {args.workload} '{command}' {digest}")
    for problem in result["problems"]:
        print(f"FAILED {problem}")
    if args.trace:
        metrics = per_layer(result)
        notes = [f"per-layer values are medians over "
                 f"{sum(p['traced'] for p in result['passes'])} traced passes"]
        notes += span_notes
    else:
        metrics, notes = end_to_end(result, setups)
    for note in notes:
        print(note)
    failed, attempted = result["failed"], result["attempted"]
    print(f"failed_ratio = {failed}/{attempted} = {failed / attempted:.4f}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
