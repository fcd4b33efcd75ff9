"""Random and mutated inputs through every subcommand and flag set.

Whatever the input, the CLI must answer with a documented exit code
(0, 2, 3, 4 or 5), print no traceback, and finish in bounded time.
Stdout is a strict UTF-8 stream, as a real terminal or pipe is, so
output that cannot be encoded fails too. The explicit examples are
shapes that earlier fixes closed and the two directed errors.
"""

import copy
import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from hyperforman import random_hypernetwork, serialize
from hyperforman.cli import main
from hyperforman.hypernet import to_json_obj

from conftest import hypernetworks, time_limit

EXIT_CODES = {0, 2, 3, 4, 5}
# report first: hypothesis favours the first choice, and report runs every stage
COMMANDS = ["report", "chi", "curvature", "gauss-bonnet", "filtrate", "validate"]
PIPELINE = set(COMMANDS) - {"validate"}

# a string that mutation can put anywhere; it is written out as a bare
# integer literal past Python's int-string digit limit
HUGE = "<huge integer>"
NASTY = [-2, -1, 0, 1, 3, 10**20, 1.5, True, False, None, "", "a", "V0", HUGE,
         [], {}, [0, 1], [-1, 0], [False, True], ["a", "a"], {"id": "V0"}]
RAW = [
    b"",
    b"{",
    b"null",
    b"[]",
    b'{"elements": 5}',
    b"[" * 100_000 + b"]" * 100_000,
    b'{"nodes": [' + b"1" * 5000 + b"]}",
    b"\xff\xfe",
]
HNET_LINES = [
    "V0: a", "V1: b", "V2: a b", "V3: a a", "V4: b c", "E: V0 V1", "E: V1 V0",
    "E>: V0 V1", "E>: V1 V0", "E>: V0 V0", "E>: V0 V3", "E: V2", "E>: V1 V9",
    ": a", "V5:", "# comment", "", "garbage",
]


def _slots(obj):
    """Every (container, key) position inside a JSON value."""
    keys = obj.keys() if isinstance(obj, dict) else range(len(obj))
    for key in list(keys):
        yield obj, key
        if isinstance(obj[key], (dict, list)):
            yield from _slots(obj[key])


@st.composite
def mutated_json(draw, base):
    """``base`` as JSON text after a few replacements, deletions and
    repetitions at random positions."""
    obj = json.loads(json.dumps(base))
    for _ in range(draw(st.sampled_from([0, 0, 1, 2, 3]))):
        slots = list(_slots(obj))
        if not slots:
            break
        container, key = draw(st.sampled_from(slots))
        action = draw(st.sampled_from(["replace", "delete", "repeat"]))
        if action == "replace":
            # a copy, so later mutations cannot change NASTY itself
            container[key] = copy.deepcopy(draw(st.sampled_from(NASTY)))
        elif action == "delete":
            del container[key]
        elif isinstance(container, list):
            container.insert(key, container[key])
        else:
            container[key] = [container[key], container[key]]
    return json.dumps(obj).replace(json.dumps(HUGE), "1" * 5000).encode()


@st.composite
def directed_objs(draw):
    """Single-node hypervertices joined by directed hyperedges. Two
    hypervertices may share a node, so an edge can be a node loop, and
    edges may come in antiparallel pairs."""
    nodes = ["a", "b", "c", "d"][: draw(st.integers(1, 4))]
    hv_nodes = draw(st.lists(st.sampled_from(nodes), min_size=2, max_size=5))
    hvs = [{"id": f"H{i}", "nodes": [n]} for i, n in enumerate(hv_nodes)]
    pairs = st.tuples(*[st.integers(0, len(hvs) - 1)] * 2).filter(
        lambda pair: pair[0] != pair[1]
    )
    edges = [
        {"id": f"E{k}", "tail": f"H{t}", "head": f"H{h}", "directed": True}
        for k, (t, h) in enumerate(draw(st.lists(pairs, max_size=8)))
    ]
    return {"nodes": nodes, "hypervertices": hvs, "hyperedges": edges,
            "directed": True}


@st.composite
def poset_objs(draw):
    members = st.lists(st.sampled_from("abcd"), max_size=4, unique=True)
    elements = draw(st.lists(members, max_size=7, unique_by=frozenset))
    obj = {"elements": elements}
    if draw(st.booleans()):
        index = st.one_of(st.integers(-2, len(elements) + 1), st.booleans())
        obj["covers"] = draw(st.lists(st.tuples(index, index), max_size=6))
    return obj


def inputs():
    """(file suffix, file bytes) pairs of every input kind."""
    networks = st.one_of(
        hypernetworks(max_nodes=5, max_hypervertices=5),
        st.randoms(use_true_random=False).map(
            lambda rng: random_hypernetwork(rng, max_nodes=8, max_hypervertices=5)
        ),
    )
    json_docs = st.one_of(
        networks.map(to_json_obj).flatmap(mutated_json),
        directed_objs().flatmap(mutated_json),
        poset_objs().flatmap(mutated_json),
    )
    hnet_docs = st.one_of(
        hypernetworks(max_nodes=5, covered_only=True).map(
            lambda h: serialize(h, "text").encode()
        ),
        st.lists(st.sampled_from(HNET_LINES), max_size=8).map(
            lambda lines: "\n".join(lines).encode()
        ),
    )
    raw = st.one_of(st.sampled_from(RAW), st.binary(max_size=40))
    suffixes = st.sampled_from([".json", ".hnet", ".txt"])
    return st.one_of(
        st.tuples(st.just(".json"), json_docs),
        st.tuples(st.just(".hnet"), hnet_docs),
        st.tuples(suffixes, st.one_of(json_docs, hnet_docs, raw)),
    )


@st.composite
def flag_sets(draw):
    """A subcommand and a flag set it accepts, now and then with one
    flag or value it rejects."""
    command = draw(st.sampled_from(COMMANDS))
    flags = [command]

    def maybe(flag, values):
        value = draw(st.sampled_from([None, *values]))
        if value is not None:
            flags.extend([flag, value])

    maybe("--format", ["auto", "json", "text"])
    if command != "report":
        maybe("--output", ["human", "json", "csv"])
    if command in PIPELINE:
        if draw(st.booleans()):
            flags.append("--no-singletons")
        maybe("--skeleton", ["0", "1", "2", "full"])
        maybe("--chain-cap", ["1", "5", "50"])
    if command in ("chi", "report"):
        maybe("--chi-method", ["delta", "rank", "geometric", "all"])
    if command in ("curvature", "report"):
        if draw(st.booleans()):
            flags.append("--directed")
            maybe("--degree", ["in", "out"])
            maybe("--triangles", ["transitive", "cyclic"])
    if draw(st.integers(0, 11)) == 6:  # a middle value: drawn about 1 in 12
        flags.append(
            draw(st.sampled_from(["--skeleton=-1", "--chain-cap=0", "--bogus"]))
        )
    return flags


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _cover_json(covers):
    return json.dumps({"elements": [["a"], ["a", "b"]], "covers": covers}).encode()


ANTIPARALLEL = json.dumps({
    "nodes": ["a", "b"],
    "hypervertices": [{"id": "A", "nodes": ["a"]}, {"id": "B", "nodes": ["b"]}],
    "hyperedges": [
        {"id": "E1", "tail": "A", "head": "B", "directed": True},
        {"id": "E2", "tail": "B", "head": "A", "directed": True},
    ],
    "directed": True,
}).encode()


@example(case=(".json", _cover_json([[-2, -1]])), flags=["validate"])
@example(case=(".json", _cover_json([[False, True]])), flags=["report"])
@example(case=(".json", b'{"elements": [["a", "a"]]}'), flags=["chi"])
@example(case=(".json", b'{"nodes": ["a", "a"]}'), flags=["report"])
@example(case=(".hnet", b"V: a a\n"), flags=["validate"])
@example(case=(".json", RAW[5]), flags=["report"])
@example(case=(".json", RAW[6]), flags=["chi"])
@example(case=(".json", ANTIPARALLEL), flags=["curvature", "--directed"])
@example(case=(".hnet", b"V: a\nW: a\nE>: V W\n"), flags=["report", "--directed"])
@example(case=(".json", None), flags=["filtrate"])
@example(
    case=(".json", b'{"nodes": ["a", "\\ud800"], "hypervertices": '
          b'[{"id": "V1", "nodes": ["a", "\\ud800"]}], "hyperedges": []}'),
    flags=["curvature", "--output", "csv"],
)
@example(case=(".json", b'{"elements": [["a"], ["\\ud800"], ["a", "\\ud800"]]}'),
         flags=["curvature"])
@given(case=inputs(), flags=flag_sets())
@settings(
    max_examples=500,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_every_input_gets_a_documented_exit_code(workdir, case, flags):
    suffix, data = case  # no data: the file does not exist
    path = workdir / f"{'input' if data is not None else 'absent'}{suffix}"
    if data is not None:
        path.write_bytes(data)
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    err = io.StringIO()
    # an exception that escapes main is a traceback, and fails the test
    with time_limit(5), redirect_stdout(out), redirect_stderr(err):
        try:
            code = main([flags[0], str(path), *flags[1:]])
        except SystemExit as ex:  # argparse rejecting a flag
            code = ex.code
        out.flush()
    assert code in EXIT_CODES, (code, err.getvalue())
    assert "Traceback" not in out.buffer.getvalue().decode() + err.getvalue()
