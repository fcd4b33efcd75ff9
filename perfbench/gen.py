"""Seeded, exact-size input generators for the benchmark workloads.

Each generator takes the workload seed and returns networks with
exactly the requested numbers of nodes, hypervertices and hyperedges;
the same seed always gives byte-identical files. Only the written files
reach the program under test, and nothing here imports ``hyperforman``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from itertools import combinations

# Each workload is a batch of networks. Short invocations repeated many
# times give steadier medians on a shared machine than a few long ones
# (see README.md).
WIDE_NETWORKS = 4
WIDE_NODES = 200
DEEP_NETWORKS = 4
DEEP_TOWERS = 1
DEEP_DEPTH = 13
DENSE_NETWORKS = 8
DENSE_NODES = 24
DENSE_HYPERVERTICES = 28
DENSE_HYPERVERTEX_SIZE = 4
DENSE_HYPEREDGES = 28
# geometric chi visits one inclusion-exclusion term per family of maximal
# generators with a common node; each dense network has this many
DENSE_FAMILIES = (90_000, 110_000)


@dataclass(frozen=True)
class Network:
    """One generated hypernetwork: node labels, hypervertex node lists
    (in id order) and undirected hyperedges as hypervertex index pairs."""

    nodes: tuple[str, ...]
    hypervertices: tuple[tuple[str, ...], ...]
    hyperedges: tuple[tuple[int, int], ...]

    def hv_id(self, i: int) -> str:
        width = len(str(max(len(self.hypervertices) - 1, 0)))
        return f"V{i:0{width}d}"

    def to_json(self) -> str:
        edges = []
        for k, (a, b) in enumerate(self.hyperedges):
            tail, head = sorted((self.hv_id(a), self.hv_id(b)))
            edges.append({"id": f"E{k}", "tail": tail, "head": head})
        obj = {
            "nodes": list(self.nodes),
            "hypervertices": [
                {"id": self.hv_id(i), "nodes": list(members)}
                for i, members in enumerate(self.hypervertices)
            ],
            "hyperedges": edges,
            "directed": False,
        }
        return json.dumps(obj, indent=1) + "\n"

    def to_text(self) -> str:
        """The line format; valid only when every node is in a hypervertex."""
        lines = [
            f"{self.hv_id(i)}: " + " ".join(members)
            for i, members in enumerate(self.hypervertices)
        ]
        lines += [
            f"E: {self.hv_id(a)} {self.hv_id(b)}" for a, b in self.hyperedges
        ]
        return "\n".join(lines) + "\n"

    def sizes(self) -> dict[str, int]:
        return {
            "nodes": len(self.nodes),
            "hypervertices": len(self.hypervertices),
            "hyperedges": len(self.hyperedges),
        }


def _distinct_sets(rng: random.Random, nodes, count: int, sizes) -> list:
    """``count`` distinct node sets, each of a size drawn from ``sizes``."""
    seen: set[frozenset] = set()
    out = []
    while len(out) < count:
        s = frozenset(rng.sample(nodes, rng.choice(sizes)))
        if s not in seen:
            seen.add(s)
            out.append(tuple(sorted(s)))
    return out


def _distinct_pairs(rng: random.Random, n: int, count: int) -> list:
    """``count`` distinct unordered index pairs over ``range(n)``."""
    seen: set[tuple[int, int]] = set()
    out = []
    while len(out) < count:
        a, b = sorted(rng.sample(range(n), 2))
        if (a, b) not in seen:
            seen.add((a, b))
            out.append((a, b))
    return out


def wide_one(rng: random.Random, n_nodes: int) -> Network:
    """N nodes, 0.75N distinct hypervertices of 1..6 nodes and 1.5N
    distinct hyperedges: many overlapping sets, a shallow order."""
    width = len(str(n_nodes - 1))
    nodes = [f"n{i:0{width}d}" for i in range(n_nodes)]
    n_hv = 3 * n_nodes // 4
    hvs = _distinct_sets(rng, nodes, n_hv, range(1, 7))
    edges = _distinct_pairs(rng, n_hv, 3 * n_nodes // 2)
    return Network(tuple(nodes), tuple(hvs), tuple(edges))


def relabel(rng: random.Random, net: Network) -> Network:
    """An isomorphic copy of ``net`` with new node labels and its
    hypervertices and hyperedges in a new order."""
    width = len(str(10 * len(net.nodes) - 1))
    labels = rng.sample(range(10 * len(net.nodes)), len(net.nodes))
    name = {old: f"n{new:0{width}d}" for old, new in zip(net.nodes, labels)}
    order = list(range(len(net.hypervertices)))
    rng.shuffle(order)
    index = {old: new for new, old in enumerate(order)}
    hvs = tuple(tuple(sorted(name[x] for x in net.hypervertices[old])) for old in order)
    edges = [tuple(sorted((index[a], index[b]))) for a, b in net.hyperedges]
    rng.shuffle(edges)
    return Network(tuple(sorted(name.values())), hvs, tuple(edges))


def wide(seed: int, n_nodes: int = WIDE_NODES, networks: int = WIDE_NETWORKS) -> list[Network]:
    """The shapes come from one fixed stream; the seed draws node labels
    and the order of hypervertices and hyperedges, so every seed costs
    the same work. Shapes drawn afresh per seed differ by up to a quarter
    in filtration work (steps x triangles) at the default sizes."""
    shapes = random.Random("wide-shapes")
    rng = random.Random(f"wide-{seed}")
    return [relabel(rng, wide_one(shapes, n_nodes)) for _ in range(networks)]


def deep_one(rng: random.Random, towers: int, depth: int) -> Network:
    """Disjoint towers of nested hypervertices V_k = {t_1..t_k}, each
    level joined to the next by a hyperedge.

    The rng draws node labels and the order of edges, not the shape, so
    every seed costs the same work.
    """
    labels = rng.sample(range(10 * towers * depth), towers * depth)
    nodes, hvs, edges = [], [], []
    for t in range(towers):
        tower = [f"t{labels[t * depth + k]:04d}" for k in range(depth)]
        nodes.extend(tower)
        base = len(hvs)
        hvs.extend(tuple(sorted(tower[: k + 1])) for k in range(depth))
        edges.extend((base + k, base + k + 1) for k in range(depth - 1))
    rng.shuffle(edges)
    return Network(tuple(sorted(nodes)), tuple(hvs), tuple(edges))


def deep(
    seed: int,
    towers: int = DEEP_TOWERS,
    depth: int = DEEP_DEPTH,
    networks: int = DEEP_NETWORKS,
) -> list[Network]:
    rng = random.Random(f"deep-{seed}")
    return [deep_one(rng, towers, depth) for _ in range(networks)]


def maximal_generators(generators) -> list[frozenset]:
    """The inclusion-maximal sets among ``generators``."""
    maximal: list[frozenset] = []
    for g in sorted(set(generators), key=len, reverse=True):
        if not any(g <= m for m in maximal):
            maximal.append(g)
    return maximal


def intersecting_families(net: Network) -> int:
    """Number of nonempty families of maximal generators (hypervertices,
    hyperedge unions and singletons) with a common node.

    This is the number of terms geometric chi's inclusion-exclusion
    visits. Counted by inclusion-exclusion over node sets X, each
    contributing (-1)^(|X|+1) (2^d(X) - 1) where d(X) is the number of
    generators containing X; adding one generator g changes the total by
    the sum over nonempty X within g of (-1)^(|X|+1) 2^d(X).
    """
    hvs = [frozenset(s) for s in net.hypervertices]
    gens = hvs + [hvs[a] | hvs[b] for a, b in net.hyperedges]
    gens += [frozenset({n}) for n in net.nodes]
    containing: dict[tuple, int] = {}
    total = 0
    for g in maximal_generators(gens):
        members = sorted(g)
        for r in range(1, len(members) + 1):
            sign = 1 if r % 2 else -1
            for x in combinations(members, r):
                d = containing.get(x, 0)
                total += sign << d
                containing[x] = d + 1
    return total


def dense_one(rng: random.Random) -> Network:
    """One small network with heavy overlap: few nodes, many 4-node
    hypervertices and hyperedges among them.

    Networks are drawn until their intersecting-family count lies in
    ``DENSE_FAMILIES``: that count, and with it the cost of geometric
    chi, otherwise ranges over two orders of magnitude between draws.
    """
    nodes = [f"d{i:02d}" for i in range(DENSE_NODES)]
    lo, hi = DENSE_FAMILIES
    while True:
        hvs = _distinct_sets(
            rng, nodes, DENSE_HYPERVERTICES, (DENSE_HYPERVERTEX_SIZE,)
        )
        edges = _distinct_pairs(rng, DENSE_HYPERVERTICES, DENSE_HYPEREDGES)
        net = Network(tuple(nodes), tuple(hvs), tuple(edges))
        if lo <= intersecting_families(net) <= hi:
            return net


def dense(seed: int, networks: int = DENSE_NETWORKS) -> list[Network]:
    """As in ``wide``, the seed relabels shapes from one fixed stream.
    The family window bounds the work of one network, but the number of
    draws it takes, and with it the set-up time, would vary with the seed."""
    shapes = random.Random("dense-shapes")
    rng = random.Random(f"dense-{seed}")
    return [relabel(rng, dense_one(shapes)) for _ in range(networks)]


@dataclass(frozen=True)
class Workload:
    """Input files and the CLI commands run on each of them."""

    inputs: object  # seed -> list of (file name, Network, file text)
    commands: tuple[tuple[str, ...], ...]


def _files(name: str, nets: list[Network], ext: str):
    text = Network.to_text if ext == "hnet" else Network.to_json
    return [(f"{name}{i}.{ext}", n, text(n)) for i, n in enumerate(nets)]


WORKLOADS = {
    # geometric chi is left out: it does not finish on this family
    "wide": Workload(
        lambda seed: _files("wide", wide(seed), "json"),
        (
            ("chi", "--chi-method", "delta"),
            ("curvature",),
            ("gauss-bonnet",),
            ("filtrate",),
            ("report", "--chi-method", "delta"),
        ),
    ),
    # the --skeleton 2 commands reach the chain layer through truncation
    "deep": Workload(
        lambda seed: _files("deep", deep(seed), "hnet"),
        (
            ("chi",),
            ("curvature",),
            ("report",),
            ("gauss-bonnet", "--skeleton", "2"),
            ("filtrate", "--skeleton", "2"),
        ),
    ),
    "dense": Workload(
        lambda seed: _files("dense", dense(seed), "json"),
        (
            ("chi",),
            ("curvature",),
            ("gauss-bonnet",),
            ("filtrate",),
            ("report",),
        ),
    ),
}
