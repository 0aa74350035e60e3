"""Citation graph construction, modularity clustering, cluster-threshold enhancement."""

from __future__ import annotations

import random
from collections import Counter, _count_elements
from dataclasses import dataclass
from typing import IO, Iterable, Sequence

from .corpus import Corpus
from .strategy import ResultSet, check_resolution, check_seed, check_threshold


@dataclass
class Adjacency:
    """An undirected graph on nodes 0..n-1 with integer edge weights, as
    Louvain runs on it: node i is `ids[i]`, and `rows[i]` lists i's
    neighbours in key order, each once per unit of the edge's weight with
    its copies adjacent (a self-loop is i in `rows[i]`)."""
    ids: list[str]
    rows: list[list[int]]

    def number_of_edges(self) -> int:
        return sum(v >= u for u, row in enumerate(self.rows) for v in set(row))


@dataclass
class CitationGraph:
    graph: Adjacency
    dangling_count: int


@dataclass(frozen=True)
class ClusterAssignment:
    mapping: dict[str, str]

    @property
    def cluster_count(self) -> int:
        return len(set(self.mapping.values()))

    def clusters(self) -> dict[str, set[str]]:
        out: dict[str, set[str]] = {}
        for node, cid in self.mapping.items():
            out.setdefault(cid, set()).add(node)
        return out


def build_citation_graph(corpus: Corpus) -> CitationGraph:
    """Undirected edge for every reference whose target exists in the corpus.

    Reciprocal citations collapse to one edge; references to ids outside the
    corpus are dropped and counted, self-references skipped. Node i is the
    i-th record. Neighbours are keyed as in the graph networkx's Louvain
    runs on, its edge-by-edge copy of the citation graph: edges `(u, v)`
    with `v >= u`, u ascending, v in the order u first met it. So row u
    lists u's lower neighbours ascending, then its higher ones as met.
    """
    index = {rid: i for i, rid in enumerate(corpus.records)}
    rows: list[list[int]] = [[] for _ in index]
    dangling = 0
    for u, rec in zip(index.values(), corpus):
        seen = {u, *rows[u]}  # rows[u] so far: the lower neighbours citing u
        lower, higher = [], []
        for ref in rec.references:
            v = index.get(ref)
            if v is None:
                dangling += 1
            elif v not in seen:
                seen.add(v)
                (lower if v < u else higher).append(v)
                rows[v].append(u)
        rows[u] = sorted(rows[u] + lower) + higher
    return CitationGraph(Adjacency(list(index), rows), dangling)


def cluster_citation_graph(graph: CitationGraph, resolution: float = 1.0,
                           seed: int = 0) -> ClusterAssignment:
    """Partition the citation graph with seeded Louvain (Blondel et al. 2008).

    The partition is the one networkx's `louvain_communities(g,
    resolution=resolution, seed=seed)` returns: `_louvain_labels` follows
    its steps and float expressions on integer node ids. Deterministic for
    fixed (graph, resolution, seed); isolated nodes become singleton
    clusters. `resolution` must be a finite number > 0 and `seed` an int.
    """
    check_resolution(resolution)
    check_seed(seed)
    g = graph.graph
    if not g.ids:
        raise ValueError("empty graph")
    members: dict[int, list[str]] = {}
    for node, label in zip(g.ids, _louvain_labels(g.rows, resolution, seed)):
        members.setdefault(label, []).append(node)
    # Canonical labels: clusters ordered by their smallest member id.
    mapping: dict[str, str] = {}
    for i, cluster in enumerate(sorted(members.values(), key=min)):
        mapping.update(dict.fromkeys(cluster, f"c{i}"))
    return ClusterAssignment(mapping)


def _louvain_labels(rows: list[list[int]], resolution: float,
                    seed: int) -> list[int]:
    """The final community of node i of `rows`, for every i, as networkx
    3.6.1's undirected `louvain_partitions` finds it on the same graph.

    Level 0 is `rows` with its neighbours keyed as networkx keys the copy
    of a graph it makes (see `build_citation_graph`); each coarser level
    adds edges in the previous level's edge order. Every weight and sum of
    weights is an exact integer, so only the gain and modularity
    expressions, kept in networkx's order, decide the bits.
    """
    labels = list(range(len(rows)))
    if not any(rows):
        return labels
    degrees = _degrees(rows)
    deg_sum = sum(degrees)
    m = deg_sum / 2
    rng = random.Random(seed)
    mod = _modularity(rows, degrees, deg_sum, resolution)
    com, _ = _one_level(rows, degrees, m, resolution, rng)
    while True:
        # Renumber the non-empty communities in index order: the next level.
        renumber = {c: i for i, c in enumerate(sorted(set(com)))}
        com = [renumber[c] for c in com]
        labels = [com[c] for c in labels]
        rows = _aggregate(rows, com, len(renumber))
        degrees = _degrees(rows)
        new_mod = _modularity(rows, degrees, deg_sum, resolution)
        if new_mod - mod <= 1e-7:
            return labels
        mod = new_mod
        com, moved = _one_level(rows, degrees, m, resolution, rng)
        if not moved:
            return labels


def _degrees(rows: list[list[int]]) -> list[int]:
    """Weighted degrees; a self-loop counts twice."""
    return [len(row) + row.count(u) for u, row in enumerate(rows)]


def _modularity(rows: list[list[int]], degrees: list[int], deg_sum: int,
                resolution: float) -> float:
    """Modularity of the previous level's partition, given as this level's
    graph: community i's internal weight is node i's self-loop."""
    m = deg_sum / 2
    norm = 1 / deg_sum**2
    return sum(row.count(u) / m - resolution * d * d * norm
               for u, (row, d) in enumerate(zip(rows, degrees)))


def _one_level(rows: list[list[int]], degrees: list[int], m: float,
               resolution: float, rng: random.Random) -> tuple[list[int], bool]:
    """Move nodes, in one shuffled order, to the neighbouring community of
    largest positive modularity gain until a pass moves none. Return each
    node's community (a node id) and whether any node moved."""
    node2com = list(range(len(rows)))
    stot = list(degrees)
    # Self-loops are no neighbours; only rows holding one are copied.
    nbrs = [[v for v in row if v != u] if u in row else row for u, row in enumerate(rows)]
    order = list(range(len(rows)))
    rng.shuffle(order)
    two_m2 = 2 * m**2
    com_of = node2com.__getitem__
    moved = False
    nb_moves = 1
    while nb_moves > 0:
        nb_moves = 0
        for u in order:
            best_mod = 0
            best_com = own = node2com[u]
            # networkx's weights2com, keyed in the order u's neighbours reach it.
            weights2com: dict[int, int] = {}
            _count_elements(weights2com, map(com_of, nbrs[u]))
            degree = degrees[u]
            stot[own] -= degree
            # networkx appends `own` with weight 0 when no neighbour is in it;
            # its gain is then exactly 0 and can never be the best.
            remove_cost = (-weights2com.get(own, 0) / m
                           + resolution * (stot[own] * degree) / two_m2)
            for c, wt in weights2com.items():
                gain = remove_cost + wt / m - resolution * (stot[c] * degree) / two_m2
                if gain > best_mod:
                    best_mod = gain
                    best_com = c
            stot[best_com] += degree
            if best_com != own:
                node2com[u] = best_com
                moved = True
                nb_moves += 1
    return node2com, moved


def _aggregate(rows: list[list[int]], com: Sequence[int], k: int) -> list[list[int]]:
    """The next level: one node per community, its edge weights summed over
    the level's edges in order (u ascending, v in row order, each once)."""
    out = [Counter() for _ in range(k)]
    for u, row in enumerate(rows):
        cu = com[u]
        for v, w in Counter(row).items():
            if v >= u:
                cv = com[v]
                out[cu][cv] += w
                if cv != cu:
                    out[cv][cu] += w
    return [list(counts.elements()) for counts in out]


def load_cluster_assignment(source: IO[str], corpus: Corpus) -> ClusterAssignment:
    """Read `internal_id<TAB>cluster_id` lines; every id must exist in the
    corpus and be on one line only."""
    mapping: dict[str, str] = {}
    first_line: dict[str, int] = {}
    for lineno, line in enumerate(source, start=1):
        line = line.rstrip("\n")
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected id<TAB>cluster_id")
        node, cid = parts
        if node not in corpus:
            raise ValueError(f"line {lineno}: unknown internal_id {node!r}")
        if node in mapping:
            raise ValueError(f"line {lineno}: internal_id {node!r} already assigned "
                             f"on line {first_line[node]}")
        mapping[node], first_line[node] = cid, lineno
    return ClusterAssignment(mapping=mapping)


def save_cluster_assignment(assignment: ClusterAssignment, sink: IO[str]) -> None:
    for node in sorted(assignment.mapping):
        sink.write(f"{node}\t{assignment.mapping[node]}\n")


@dataclass
class EnhancementReport:
    included_clusters: dict[str, float]
    excluded_clusters: dict[str, float]
    seed_members_lost: int
    singleton_members: int


def enhance_by_cluster_threshold(seed_result: ResultSet,
                                 assignment: ClusterAssignment,
                                 threshold: float,
                                 corpus: Corpus,
                                 eligible: Iterable[str] | None = None,
                                 ) -> tuple[ResultSet, EnhancementReport]:
    """Cluster-threshold enhancement: include whole clusters whose share of
    seed publications reaches the threshold, drop everything else.

    share(c) = |seed members in c| / |c|, computed over `eligible` members
    (defaults to all assigned nodes). share == threshold qualifies.
    Seed members missing from the assignment are treated as singleton
    clusters so they are not silently dropped.
    """
    check_threshold(threshold)
    clusters = assignment.clusters()
    if eligible is not None:
        eligible = set(eligible)
        clusters = {cid: kept for cid, members in clusters.items()
                    if (kept := members & eligible)}
    seeds = set(seed_result.members)
    singletons = sorted(seeds - assignment.mapping.keys())
    clusters.update({f"__singleton__{node}": {node} for node in singletons})

    included: dict[str, float] = {}
    excluded: dict[str, float] = {}
    out: set[str] = set()
    lost = 0
    for cid in sorted(clusters):
        members = clusters[cid]
        share = len(members & seeds) / len(members)
        if share >= threshold:
            included[cid] = share
            out |= members
        else:
            excluded[cid] = share
            lost += len(members & seeds)
    report = EnhancementReport(included, excluded, lost, len(singletons))
    return ResultSet(seed_result.strategy_name, corpus, out), report
