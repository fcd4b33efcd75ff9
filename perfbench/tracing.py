"""Spans and counters recorded around the library calls the CLI makes.

The library has no timers of its own, so the traced run replaces the
public functions the CLI reaches with wrappers (see :func:`instrument`)
and restores them afterwards. Each span records a name, start, end, its
parent span and the invocation it belongs to; functions called once per
edge or vertex get a counter with accumulated time instead. Spans stay
in memory and are summarised after each invocation, outside every timed
window.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass

from gen import maximal_generators


@dataclass
class Span:
    id: int
    parent: int | None
    invocation: int
    name: str
    start: float
    end: float = 0.0
    arg: object = None
    result: object = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, list] = {}  # name -> [calls, seconds]
        self._stack: list[Span] = []
        self._invocation = 0
        self._patches: list[tuple[object, str, object]] = []

    def _open(self, name: str, arg=None) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, self._invocation, name, clock(), arg=arg)
        self.spans.append(span)
        return span

    @contextmanager
    def invocation(self):
        """Root span of one CLI call; its spans share a new invocation id."""
        self._invocation += 1
        s = self._open("cli.main")
        self._stack.append(s)
        try:
            yield s
        finally:
            self._stack.pop()
            s.end = clock()

    def wrap(self, name: str, fn):
        """``fn`` recorded as a span that keeps its first argument and result."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            s = tracer._open(name, args[0] if args else None)
            tracer._stack.append(s)
            try:
                s.result = fn(*args, **kwargs)
                return s.result
            finally:
                tracer._stack.pop()
                s.end = clock()

        return wrapper

    def wrap_generator(self, name: str, fn):
        """A generator function recorded as one span from its first item to
        its end; it is not a parent, since nothing it calls is traced."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            s = tracer._open(name)
            try:
                yield from fn(*args, **kwargs)
            finally:
                s.end = clock()

        return wrapper

    def count(self, name: str, fn):
        """``fn`` with a call counter and accumulated time, no spans."""
        tally = self.counters.setdefault(name, [0, 0.0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                tally[0] += 1
                tally[1] += clock() - t

        return wrapper

    def patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def take(self) -> tuple[list[Span], dict[str, list]]:
        """Hand over the recorded spans and counters and start afresh."""
        spans, self.spans = self.spans, []
        counters = {name: list(tally) for name, tally in self.counters.items()}
        # the wrappers hold their tally lists, so reset them in place
        for tally in self.counters.values():
            tally[0], tally[1] = 0, 0.0
        return spans, counters


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the time its child spans cover.

    Spans nest (children lie inside their parent and do not overlap), so
    the covered time is the sum of the children's durations.
    """
    covered: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            covered[s.parent] = covered.get(s.parent, 0.0) + s.seconds
    return {s.id: s.seconds - covered.get(s.id, 0.0) for s in spans}


SPANS = (
    # (module, attribute, span name)
    ("cli", "load_input", "cli.load_input"),
    ("cli", "parse", "hypernet.parse"),
    ("cli", "from_json_obj", "hypernet.from_json_obj"),
    ("cli", "poset_from_hypernetwork", "poset.poset_from_hypernetwork"),
    ("poset.Poset", "rank_function", "poset.rank_function"),
    ("cli", "order_complex", "complexes.order_complex"),
    ("cli", "two_skeleton", "curvature.two_skeleton"),
    ("curvature", "two_skeleton", "curvature.two_skeleton"),
    ("cli", "gauss_bonnet", "curvature.gauss_bonnet"),
    ("cli", "curvature_filtration", "curvature.curvature_filtration"),
    # chi_values imports this lazily, from the module, at each call
    ("hypernet", "geometric_euler_characteristic", "hypernet.geometric_euler_characteristic"),
)
GENERATOR_SPANS = (("poset.Poset", "chains", "poset.chains"),)
COUNTERS = (
    ("curvature", "forman_ricci", "curvature.forman_ricci"),
    ("cli", "forman_ricci_closed", "curvature.forman_ricci_closed"),
    ("cli", "vertex_curvature", "curvature.vertex_curvature"),
    ("curvature", "vertex_curvature", "curvature.vertex_curvature"),
)


def _owner(path: str):
    module, _, cls = path.partition(".")
    owner = importlib.import_module(f"hyperforman.{module}")
    return getattr(owner, cls) if cls else owner


def instrument(tracer: Tracer) -> None:
    """Wrap the public functions the CLI reaches; undo with ``restore``."""
    for path, attr, name in SPANS:
        owner = _owner(path)
        tracer.patch(owner, attr, tracer.wrap(name, getattr(owner, attr)))
    for path, attr, name in GENERATOR_SPANS:
        owner = _owner(path)
        tracer.patch(owner, attr, tracer.wrap_generator(name, getattr(owner, attr)))
    for path, attr, name in COUNTERS:
        owner = _owner(path)
        tracer.patch(owner, attr, tracer.count(name, getattr(owner, attr)))


# per-layer time metrics: the spans whose durations they sum
SPAN_SECONDS = {
    "poset.build_s": ("poset.poset_from_hypernetwork",),
    "poset.rank_s": ("poset.rank_function",),
    "complexes.order_complex_s": ("complexes.order_complex",),
    "complexes.skeleton_s": ("curvature.two_skeleton",),
    "curvature.gauss_bonnet_s": ("curvature.gauss_bonnet",),
    "curvature.filtration_s": ("curvature.curvature_filtration",),
    "hypernet.parse_s": ("hypernet.parse", "hypernet.from_json_obj"),
    "hypernet.geometric_chi_s": ("hypernet.geometric_euler_characteristic",),
    "cli.load_s": ("cli.load_input",),
}


def generator_count(network) -> int:
    """Number of maximal generator simplices of the geometric view: the
    count the inclusion-exclusion in geometric chi is exponential in."""
    by_id = {hv.id: hv.nodes for hv in network.hypervertices}
    gens = list(by_id.values())
    gens += [by_id[e.tail] | by_id[e.head] for e in network.hyperedges]
    gens += [frozenset({n}) for n in network.nodes]
    return len(maximal_generators(gens))


class LayerPass:
    """Per-layer totals for one traced pass over a workload.

    Times and work counts add up over every call in the pass; sizes
    (poset, 2-skeleton, generators) count each input once.
    """

    def __init__(self):
        self.seconds = {name: 0.0 for name in SPAN_SECONDS}
        self.cli_self = 0.0
        self.build_calls = 0
        self.order_complex_calls = 0
        self.chains_emitted = 0
        self.useful_faces = 0
        self.filtration_steps = 0
        self.filtration_tri_checks = 0
        self.warnings = 0
        self.output_bytes = 0
        self.sizes: dict[tuple[str, str], int] = {}
        self.counters: dict[str, list] = {}

    def add_invocation(self, input_key: str, spans: list[Span], warnings: int, output_bytes: int) -> None:
        by_name: dict[str, list[Span]] = {}
        for s in spans:
            by_name.setdefault(s.name, []).append(s)
        for metric, names in SPAN_SECONDS.items():
            self.seconds[metric] += sum(s.seconds for n in names for s in by_name.get(n, ()))
        own = self_times(spans)
        self.cli_self += sum(own[s.id] for s in by_name.get("cli.main", ()))
        self.warnings += warnings
        self.output_bytes += output_bytes

        for s in by_name.get("poset.poset_from_hypernetwork", ()):
            self.build_calls += 1
            p = s.result
            self.sizes[(input_key, "elements")] = len(p)
            self.sizes[(input_key, "covers")] = len(p.covers)
            self.sizes[(input_key, "comparable_pairs")] = p.comparable_pair_count()
        for s in by_name.get("complexes.order_complex", ()):
            f = s.result.f_vector()
            self.order_complex_calls += 1
            self.chains_emitted += sum(f)
            self.useful_faces += sum(f[:3])
        for s in by_name.get("curvature.two_skeleton", ()):
            self.sizes[(input_key, "edges")] = len(s.result.edges)
            self.sizes[(input_key, "triangles")] = len(s.result.triangles)
        for s in by_name.get("curvature.curvature_filtration", ()):
            steps = len(s.result)
            self.filtration_steps += steps
            self.filtration_tri_checks += steps * len(s.arg.triangles)
        for s in by_name.get("hypernet.geometric_euler_characteristic", ()):
            self.sizes[(input_key, "generators")] = generator_count(s.arg)

    def add_counters(self, counters: dict[str, list]) -> None:
        for name, (calls, seconds) in counters.items():
            tally = self.counters.setdefault(name, [0, 0.0])
            tally[0] += calls
            tally[1] += seconds

    def size(self, what: str) -> int:
        return sum(v for (_, w), v in self.sizes.items() if w == what)

    def metrics(self) -> dict[str, float]:
        calls = {n: c[0] for n, c in self.counters.items()}
        ricci_evals = calls.get("curvature.forman_ricci", 0) + calls.get(
            "curvature.forman_ricci_closed", 0
        )
        edges = self.size("edges")
        out = dict(self.seconds)
        out.update(
            {
                "poset.build_calls": self.build_calls,
                "poset.elements": self.size("elements"),
                "poset.covers": self.size("covers"),
                "poset.comparable_pairs": self.size("comparable_pairs"),
                "complexes.order_complex_calls": self.order_complex_calls,
                "complexes.chains_emitted": self.chains_emitted,
                "complexes.edges": edges,
                "complexes.triangles": self.size("triangles"),
                "complexes.useful_ratio": self.useful_faces / self.chains_emitted
                if self.chains_emitted
                else 0.0,
                "complexes.truncation_warnings": self.warnings,
                "curvature.filtration_steps": self.filtration_steps,
                "curvature.filtration_tri_checks": self.filtration_tri_checks,
                "curvature.ricci_evals": ricci_evals,
                "curvature.ricci_evals_per_edge": ricci_evals / edges if edges else 0.0,
                "curvature.term_calls_s": sum(c[1] for c in self.counters.values()),
                "hypernet.generators": self.size("generators"),
                "cli.self_s": self.cli_self,
                "cli.output_bytes": self.output_bytes,
            }
        )
        return out
