"""One benchmark child process: set up a workload, then measure it.

Usage: child.py WORKDIR WORKLOAD SEED SECONDS TRACE MODE

Set-up imports ``hyperforman`` from the checkout's ``src``, writes the
seeded inputs into WORKDIR, makes one warm-up ``validate`` call and then
prints ``READY``; the parent times set-up up to that line. With MODE
``setup`` the child stops there. With MODE ``measure`` it runs passes
over the workload (every command on every input) in process through
``hyperforman.cli.main``, checks every output, and writes
``result.json`` into WORKDIR, with each invocation's wall time and
its time at the reference speed (see speed.py). With TRACE 1 it
alternates untraced and traced passes, and writes the traced spans,
with their self times, to ``spans.jsonl`` at the end.
"""

from __future__ import annotations

import gc
import hashlib
import io
import json
import resource
import sys
import time
import traceback
import warnings
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from check import Invocation, check_invocation, check_pass  # noqa: E402
from gen import WORKLOADS  # noqa: E402
from speed import at_reference_speed, calibrate  # noqa: E402
from tracing import LayerPass, Tracer, instrument, self_times  # noqa: E402


def invoke(cli, command: tuple, path: Path, tracer: Tracer | None = None) -> Invocation:
    """Run one CLI command in process with stdout and stderr captured and
    warnings recorded (so every repeat sees them and none reach the
    console). Garbage is collected, and the machine's speed measured,
    just before the timed window."""
    argv = [command[0], str(path), *command[1:]]
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    cal = calibrate()
    with redirect_stdout(out), redirect_stderr(err), warnings.catch_warnings(
        record=True
    ) as caught:
        warnings.simplefilter("always")
        start = time.perf_counter()
        try:
            with tracer.invocation() if tracer else nullcontext():
                rc = cli.main(argv)
        except SystemExit as ex:
            rc = ex.code
        except Exception:  # a crash is a failed invocation, not a failed run
            rc = None
            err.write(traceback.format_exc())
        seconds = time.perf_counter() - start
    return Invocation(
        " ".join(command), path.name, argv, rc, out.getvalue(), err.getvalue(),
        seconds, len(caught), cal,
    )


class Measurement:
    def __init__(self, cli, workload, files: list[Path]):
        self.cli = cli
        self.workload = workload
        self.files = files
        self.passes: list[dict] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first_hash: dict[tuple[str, str], str] = {}
        self.reference: dict = {}
        self.spans: list[dict] = []  # traced spans, written out at the end

    def run_pass(self, tracer: Tracer | None) -> None:
        layers = LayerPass() if tracer else None
        invocations = []
        for command in self.workload.commands:
            for path in self.files:
                inv = invoke(self.cli, command, path, tracer)
                invocations.append(inv)
                if tracer:
                    spans, counters = tracer.take()
                    layers.add_invocation(path.name, spans, inv.warnings, len(inv.out.encode()))
                    layers.add_counters(counters)
                    own = self_times(spans)
                    self.spans += [
                        {"pass": len(self.passes), "invocation": s.invocation,
                         "id": s.id, "parent": s.parent, "name": s.name,
                         "start": s.start, "end": s.end, "self": own[s.id]}
                        for s in spans
                    ]
        problems_at, reference = check_pass(invocations)
        if not self.passes:
            self.reference = reference
        samples: dict[str, list[float]] = {}
        wall: dict[str, list[float]] = {}
        for i, inv in enumerate(invocations):
            digest = hashlib.sha256(inv.out.encode()).hexdigest()
            first = self.first_hash.setdefault((inv.command, inv.input), digest)
            problems = problems_at.get(i, [])
            if digest != first:
                problems.append("output differs from the first pass")
            self.attempted += 1
            if problems:
                self.failed += 1
                self.problems.append(f"{inv.command} {inv.input}: {problems[0]}")
            samples.setdefault(inv.command, []).append(
                at_reference_speed(inv.seconds, inv.cal)
            )
            wall.setdefault(inv.command, []).append(inv.seconds)
        self.passes.append(
            {
                "traced": tracer is not None,
                "samples": samples,
                "wall": wall,
                "layers": layers.metrics() if layers else None,
            }
        )

    def run_for(self, seconds: float, tracer: Tracer | None) -> None:
        """Run at least two passes, and more while the next one, as long as
        the last, still ends within ``seconds``. With a tracer, every
        second pass is traced, so that untraced and traced passes see the
        same machine load."""
        end = time.perf_counter() + seconds
        while True:
            t = time.perf_counter()
            traced = tracer is not None and len(self.passes) % 2 == 1
            if traced:
                instrument(tracer)
            try:
                self.run_pass(tracer if traced else None)
            finally:
                if traced:
                    tracer.restore()
            now = time.perf_counter()
            if len(self.passes) >= 2 and now + (now - t) > end:
                return

    def sha256(self) -> dict[str, str]:
        """One digest per command over the first pass's outputs, in input order."""
        out = {}
        for command in self.workload.commands:
            label = " ".join(command)
            h = hashlib.sha256()
            for path in self.files:
                h.update(bytes.fromhex(self.first_hash[(label, path.name)]))
            out[label] = h.hexdigest()
        return out


def main(argv: list[str]) -> int:
    workdir, name, seed, seconds, trace, mode = argv
    workdir, seed, seconds = Path(workdir), int(seed), float(seconds)
    from hyperforman import cli

    workload = WORKLOADS[name]
    generated = workload.inputs(seed)
    files = []
    for fname, _, text in generated:
        path = workdir / fname
        path.write_text(text)
        files.append(path)
    warm = invoke(cli, ("validate",), files[0])
    problems, facts = check_invocation(warm)
    if facts and facts != generated[0][1].sizes():
        problems.append(f"validate reports {facts}, generated {generated[0][1].sizes()}")
    print("READY", flush=True)
    if mode == "setup":
        return 0

    m = Measurement(cli, workload, files)
    m.attempted, m.failed = 1, int(bool(problems))
    m.problems += [f"validate {files[0].name}: {p}" for p in problems]
    m.run_for(seconds, Tracer() if trace == "1" else None)
    sizes = []
    for fname, net, _ in generated:
        ref = m.reference.get(fname, {})
        sizes.append(
            {"input": fname, **net.sizes(), "poset": ref.get("elements"),
             "skeleton_f_vector": ref.get("skeleton")}
        )
    result = {
        "passes": m.passes,
        "attempted": m.attempted,
        "failed": m.failed,
        "problems": m.problems[:20],
        "sha256": m.sha256(),
        "sizes": sizes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    (workdir / "result.json").write_text(json.dumps(result))
    if m.spans:
        with open(workdir / "spans.jsonl", "w") as f:
            f.writelines(json.dumps(s) + "\n" for s in m.spans)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
