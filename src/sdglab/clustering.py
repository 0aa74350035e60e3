"""Citation graph construction, modularity clustering, cluster-threshold enhancement."""

from __future__ import annotations

import random
from collections import defaultdict
from dataclasses import dataclass
from typing import IO, Iterable, Sequence

from .corpus import Corpus
from .strategy import ResultSet, check_resolution, check_seed, check_threshold


class AssignmentLoadError(ValueError):
    pass


@dataclass
class Adjacency:
    """An undirected graph on nodes 0..n-1, as Louvain runs on it: node i is
    `ids[i]`, and `adj[i]` maps each neighbour of i to the edge's weight (a
    self-loop is i in `adj[i]`)."""
    ids: list[str]
    adj: list[dict[int, float]]

    def number_of_edges(self) -> int:
        return sum(v >= u for u, row in enumerate(self.adj) for v in row)


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
    with `v >= u`, u ascending, v in the order u first met it.
    """
    index = {rid: i for i, rid in enumerate(corpus.records)}
    met: list[dict[int, float]] = [{} for _ in index]
    dangling = 0
    for u, rec in enumerate(corpus):
        for ref in rec.references:
            v = index.get(ref)
            if v is None:
                dangling += 1
            elif v != u:
                met[u][v] = met[v][u] = 1.0
    n = len(index)
    # Regrouping by the identity partition re-keys `met` in edge order.
    return CitationGraph(Adjacency(list(index), _aggregate(met, range(n), n)), dangling)


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
    for node, label in zip(g.ids, _louvain_labels(g.adj, resolution, seed)):
        members.setdefault(label, []).append(node)
    # Canonical labels: clusters ordered by their smallest member id.
    return ClusterAssignment(mapping={
        node: f"c{i}"
        for i, cluster in enumerate(sorted(members.values(), key=min))
        for node in cluster})


def _louvain_labels(adj: list[dict[int, float]], resolution: float,
                    seed: int) -> list[int]:
    """The final community of node i of `adj`, for every i, as networkx
    3.6.1's undirected `louvain_partitions` finds it on the same graph.

    Level 0 is `adj` with its neighbours keyed as networkx keys the copy of
    a graph it makes (see `build_citation_graph`); each coarser level adds
    edges in the previous level's edge order. All sums of weights are exact
    for integer weights (1.0 in a citation graph), so only the gain and
    modularity expressions, kept in networkx's order, decide the bits.
    """
    labels = list(range(len(adj)))
    if not any(adj):
        return labels
    degrees = _degrees(adj)
    deg_sum = sum(degrees)
    m = deg_sum / 2
    rng = random.Random(seed)
    mod = _modularity(adj, degrees, deg_sum, resolution)
    com, _ = _one_level(adj, degrees, m, resolution, rng)
    while True:
        # Renumber the non-empty communities in index order: the next level.
        renumber = {c: i for i, c in enumerate(sorted(set(com)))}
        com = [renumber[c] for c in com]
        labels = [com[c] for c in labels]
        adj = _aggregate(adj, com, len(renumber))
        degrees = _degrees(adj)
        new_mod = _modularity(adj, degrees, deg_sum, resolution)
        if new_mod - mod <= 1e-7:
            return labels
        mod = new_mod
        com, moved = _one_level(adj, degrees, m, resolution, rng)
        if not moved:
            return labels


def _degrees(adj: list[dict[int, float]]) -> list[float]:
    """Weighted degrees; a self-loop counts twice."""
    return [sum(nbrs.values()) + nbrs.get(u, 0) for u, nbrs in enumerate(adj)]


def _modularity(adj: list[dict[int, float]], degrees: list[float], deg_sum: float,
                resolution: float) -> float:
    """Modularity of the previous level's partition, given as this level's
    graph: community i's internal weight is node i's self-loop."""
    m = deg_sum / 2
    norm = 1 / deg_sum**2
    return sum(nbrs.get(u, 0) / m - resolution * d * d * norm
               for u, (nbrs, d) in enumerate(zip(adj, degrees)))


def _one_level(adj: list[dict[int, float]], degrees: list[float], m: float,
               resolution: float, rng: random.Random) -> tuple[list[int], bool]:
    """Move nodes, in one shuffled order, to the neighbouring community of
    largest positive modularity gain until a pass moves none. Return each
    node's community (a node id) and whether any node moved."""
    node2com = list(range(len(adj)))
    stot = list(degrees)
    nbrs = [[(v, w) for v, w in row.items() if v != u] for u, row in enumerate(adj)]
    order = list(range(len(adj)))
    rng.shuffle(order)
    two_m2 = 2 * m**2
    moved = False
    nb_moves = 1
    while nb_moves > 0:
        nb_moves = 0
        for u in order:
            best_mod = 0
            best_com = own = node2com[u]
            weights2com: defaultdict[int, float] = defaultdict(float)
            for v, w in nbrs[u]:
                weights2com[node2com[v]] += w
            degree = degrees[u]
            stot[own] -= degree
            # Reading `own` appends it with weight 0.0 when no neighbour is in it.
            remove_cost = (-weights2com[own] / m
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


def _aggregate(adj: list[dict[int, float]], com: Sequence[int],
               k: int) -> list[dict[int, float]]:
    """The next level: one node per community, edge weights summed over the
    level's edges in order (u ascending, v in adjacency order, each once)."""
    out: list[dict[int, float]] = [{} for _ in range(k)]
    for u, row in enumerate(adj):
        cu = com[u]
        for v, w in row.items():
            if v >= u:
                cv = com[v]
                out[cu][cv] = out[cv][cu] = w + out[cu].get(cv, 0)
    return out


def load_cluster_assignment(source: IO[str], corpus: Corpus) -> ClusterAssignment:
    """Read `internal_id<TAB>cluster_id` lines; every id must exist in the corpus."""
    mapping: dict[str, str] = {}
    for lineno, line in enumerate(source, start=1):
        line = line.rstrip("\n")
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise AssignmentLoadError(f"line {lineno}: expected id<TAB>cluster_id")
        node, cid = parts
        if node not in corpus:
            raise AssignmentLoadError(f"line {lineno}: unknown internal_id {node!r}")
        mapping[node] = cid
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
    eligible_set = set(eligible) if eligible is not None else None

    clusters = assignment.clusters()
    if eligible_set is not None:
        clusters = {cid: members & eligible_set
                    for cid, members in clusters.items()}
        clusters = {cid: members for cid, members in clusters.items() if members}

    seeds = set(seed_result.members)
    singleton_members = 0
    assigned = set(assignment.mapping)
    for node in sorted(seeds - assigned):
        clusters[f"__singleton__{node}"] = {node}
        singleton_members += 1

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
    report = EnhancementReport(included_clusters=included,
                               excluded_clusters=excluded,
                               seed_members_lost=lost,
                               singleton_members=singleton_members)
    enhanced = ResultSet(seed_result.strategy_name, corpus, out)
    return enhanced, report
