import io
import random

import networkx as nx
import pytest

from conftest import DATA_DIR
from sdglab.clustering import (Adjacency, CitationGraph,
                               ClusterAssignment, build_citation_graph, cluster_citation_graph,
                               enhance_by_cluster_threshold,
                               load_cluster_assignment,
                               save_cluster_assignment)
from sdglab.corpus import Corpus, PublicationRecord, load_corpus_file
from sdglab.strategy import ResultSet


def record(rid, refs=(), year=2016, doi=None):
    return PublicationRecord(rid, f"title {rid}", year, doi=doi,
                             references=tuple(refs))


def edge_set(graph: Adjacency) -> set[frozenset[str]]:
    """The edges of `graph` as pairs of record ids."""
    return {frozenset((graph.ids[u], graph.ids[v]))
            for u, row in enumerate(graph.rows) for v in row if v >= u}


class TestBuildCitationGraph:
    def test_reciprocal_citation_is_one_edge(self):
        corpus = Corpus("c", [record("A", ["B"]), record("B", ["A"]),
                              record("C")])
        graph = build_citation_graph(corpus)
        assert edge_set(graph.graph) == {frozenset({"A", "B"})}
        assert graph.dangling_count == 0

    def test_dangling_reference_counted(self):
        corpus = Corpus("c", [record("A", ["ghost"]), record("B")])
        graph = build_citation_graph(corpus)
        assert edge_set(graph.graph) == set()
        assert graph.dangling_count == 1

    def test_edge_set_matches_reference_scan_oracle(self):
        rng = random.Random(17)
        ids = [f"r{i}" for i in range(200)]
        refs = {rid: rng.sample(ids, rng.randint(0, 5)) for rid in ids}
        corpus = Corpus("c", [record(rid, refs[rid]) for rid in ids])
        graph = build_citation_graph(corpus)
        expected = set()
        for rid in ids:
            for target in refs[rid]:
                if target != rid and target in refs:
                    expected.add(frozenset({rid, target}))
        assert edge_set(graph.graph) == expected

    @pytest.mark.parametrize("seed", range(10))
    def test_same_adjacency_as_networkx_build(self, seed):
        """Ids, neighbour key order and dangling count of the networkx build
        copied edge by edge, which Louvain's tie-breaks depend on."""
        corpus = tangled_corpus(seed)
        g, dangling = networkx_citation_graph(corpus)
        expected = from_networkx(g).graph
        built = build_citation_graph(corpus)
        assert built.graph.ids == expected.ids == list(corpus.records)
        assert keyed_rows(built.graph) == keyed_rows(expected)
        assert built.dangling_count == dangling
        assert built.graph.number_of_edges() == g.number_of_edges()


def networkx_citation_graph(corpus: Corpus) -> tuple[nx.Graph, int]:
    """The citation graph as networkx builds it, and its dangling count: the
    reference for build_citation_graph."""
    g = nx.Graph()
    g.add_nodes_from(corpus.records)
    dangling = 0
    for rec in corpus:
        for ref in rec.references:
            if ref == rec.internal_id:
                continue
            if ref in corpus:
                g.add_edge(rec.internal_id, ref, weight=1.0)
            else:
                dangling += 1
    return g, dangling


def from_networkx(g: nx.Graph) -> CitationGraph:
    """`g` as the adjacency Louvain runs on, copied edge by edge in `g.edges`
    order as networkx's Louvain copies it, each neighbour listed once per
    unit of the edge's integer weight; self-loops are kept."""
    index = {node: i for i, node in enumerate(g)}
    rows: list[list[int]] = [[] for _ in index]
    for u, v, w in g.edges(data="weight", default=1):
        u, v = index[u], index[v]
        rows[u] += [v] * int(w)
        if u != v:
            rows[v] += [u] * int(w)
    return CitationGraph(Adjacency(list(g), rows), dangling_count=0)


def tangled_corpus(seed: int) -> Corpus:
    """Records in shuffled id order citing each other at random, with
    reciprocal, repeated, self and dangling references."""
    rng = random.Random(seed)
    ids = shuffled_ids(rng, rng.randint(1, 150))
    refs: dict[str, list[str]] = {rid: [] for rid in ids}
    for rid in ids:
        for _ in range(rng.randint(0, 6)):
            kind = rng.random()
            if kind < 0.6:
                target = rng.choice(ids)
            elif kind < 0.75:
                target = rid
            else:
                target = f"ghost{rng.randint(0, 9)}"
            refs[rid].append(target)
            if target in refs and rng.random() < 0.3:
                refs[target].append(rid)
        if refs[rid] and rng.random() < 0.3:
            refs[rid].append(rng.choice(refs[rid]))
    return Corpus("c", [record(rid, refs[rid]) for rid in ids])


def keyed_rows(adjacency: Adjacency) -> list[list[int]]:
    """Each node's neighbours in key order, once per unit of weight."""
    return adjacency.rows


def triangles_corpus():
    return Corpus("c", [
        record("a1", ["a2", "a3"]), record("a2", ["a3"]), record("a3"),
        record("b1", ["b2", "b3"]), record("b2", ["b3"]), record("b3"),
    ])


class TestClusterCitationGraph:
    def test_disjoint_triangles_give_two_clusters(self):
        assignment = cluster_citation_graph(
            build_citation_graph(triangles_corpus()), seed=1)
        clusters = assignment.clusters()
        assert len(clusters) == 2
        assert {frozenset(c) for c in clusters.values()} == \
            {frozenset({"a1", "a2", "a3"}), frozenset({"b1", "b2", "b3"})}

    def test_deterministic_for_fixed_seed(self):
        graph = build_citation_graph(triangles_corpus())
        a1 = cluster_citation_graph(graph, seed=5)
        a2 = cluster_citation_graph(graph, seed=5)
        assert a1.mapping == a2.mapping

    def test_isolated_nodes_are_singletons(self):
        corpus = Corpus("c", [record("x"), record("y")])
        assignment = cluster_citation_graph(build_citation_graph(corpus))
        assert assignment.cluster_count == 2

    def test_empty_graph_rejected(self):
        corpus = Corpus("c", [])
        with pytest.raises(ValueError, match="empty graph"):
            cluster_citation_graph(build_citation_graph(corpus))

    def test_recovers_planted_partition(self):
        rng = random.Random(99)
        blocks = {0: [f"a{i}" for i in range(20)],
                  1: [f"b{i}" for i in range(20)]}
        refs = {rid: [] for b in blocks.values() for rid in b}
        for b, members in blocks.items():
            for i, u in enumerate(members):
                for v in members[i + 1:]:
                    if rng.random() < 0.5:
                        refs[u].append(v)
        for u in blocks[0]:
            for v in blocks[1]:
                if rng.random() < 0.02:
                    refs[u].append(v)
        corpus = Corpus("c", [record(rid, r) for rid, r in refs.items()])
        assignment = cluster_citation_graph(build_citation_graph(corpus),
                                            seed=3)
        # majority vote per planted block against the recovered labels
        correct = 0
        for members in blocks.values():
            labels = [assignment.mapping[m] for m in members]
            majority = max(set(labels), key=labels.count)
            correct += sum(1 for lab in labels if lab == majority)
        assert correct >= 0.95 * 40


def networkx_assignment(g, resolution, seed) -> dict[str, str]:
    """networkx's seeded Louvain partition with cluster_citation_graph's
    labels: clusters numbered by their smallest member id."""
    communities = nx.community.louvain_communities(g, resolution=resolution, seed=seed)
    return {node: f"c{i}" for i, members in enumerate(sorted(communities, key=min))
            for node in members}


def shuffled_ids(rng: random.Random, n: int) -> list[str]:
    """n distinct string ids whose order is not their sort order."""
    return rng.sample([f"n{i:05d}" for i in range(10 * n)], n)


def random_graph(seed: int, weighted: bool = False) -> nx.Graph:
    """Several components of random edges, isolated nodes and, for odd
    seeds, a few self-loops; edges weigh 1.0, or an int from 1 to 3 each
    when `weighted`."""
    rng = random.Random(seed)

    def weight():
        return rng.randint(1, 3) if weighted else 1.0
    g = nx.Graph()
    ids = shuffled_ids(rng, rng.randint(30, 300))
    g.add_nodes_from(ids)
    cuts = sorted(rng.sample(range(1, len(ids)), 3))
    for part in (ids[:cuts[0]], ids[cuts[0]:cuts[1]], ids[cuts[1]:cuts[2]]):
        p = rng.choice([0.02, 0.05, 0.1, 0.3])
        for i, u in enumerate(part):
            for v in part[i + 1:]:
                if rng.random() < p:
                    g.add_edge(u, v, weight=weight())
    if seed % 2:
        for u in rng.sample(ids, 3):
            g.add_edge(u, u, weight=weight())
    return g  # ids[cuts[2]:] stay isolated


def relabelled(g: nx.Graph, seed: int) -> nx.Graph:
    """`g` with string ids in shuffled order and unit weights."""
    ids = shuffled_ids(random.Random(seed), g.number_of_nodes())
    g = nx.relabel_nodes(g, dict(zip(g, ids)))
    nx.set_edge_attributes(g, 1.0, "weight")
    return g


ORACLE_GRAPHS = [f"{kind}-{s}" for kind in ("random", "weighted") for s in range(12)] + [
    "ring-of-cliques", "grid", "cycle", "planted-2k", "demo-corpus_x", "demo-corpus_y",
    "edgeless", "single-node"]


@pytest.fixture(scope="module")
def oracle_graphs() -> dict[str, tuple[nx.Graph, CitationGraph]]:
    """Each oracle graph for networkx and as cluster_citation_graph takes it:
    the demo corpora's by the networkx build and by build_citation_graph,
    the others through from_networkx."""
    graphs = {f"random-{s}": random_graph(s) for s in range(12)}
    # Integer weights put repeated neighbours in the rows of level 0 too.
    graphs.update({f"weighted-{s}": random_graph(s, weighted=True) for s in range(12)})
    # Regular graphs: many moves tie on gain, so dict order must decide.
    graphs["ring-of-cliques"] = relabelled(nx.ring_of_cliques(12, 5), 1)
    graphs["grid"] = relabelled(nx.grid_2d_graph(12, 15), 2)
    graphs["cycle"] = relabelled(nx.cycle_graph(64), 3)
    graphs["planted-2k"] = relabelled(
        nx.random_partition_graph([100] * 20, 0.04, 0.0005, seed=7), 4)
    demo = {}
    for name in ("corpus_x", "corpus_y"):
        corpus = load_corpus_file(DATA_DIR / "demo" / f"{name}.jsonl", name=name)
        graphs[f"demo-{name}"] = networkx_citation_graph(corpus)[0]
        demo[f"demo-{name}"] = build_citation_graph(corpus)
    graphs["edgeless"] = nx.empty_graph(["e3", "e1", "e2"])
    graphs["single-node"] = nx.empty_graph(["only"])
    assert list(graphs) == ORACLE_GRAPHS
    return {name: (g, demo.get(name) or from_networkx(g)) for name, g in graphs.items()}


class TestLouvainOracle:
    """cluster_citation_graph gives networkx's seeded partition exactly."""

    @pytest.mark.parametrize("name", ORACLE_GRAPHS)
    def test_same_partition_as_networkx(self, oracle_graphs, name):
        g, graph = oracle_graphs[name]
        mismatches = [(seed, resolution)
                      for seed in range(5) for resolution in (0.5, 1, 2)
                      if cluster_citation_graph(graph, resolution, seed).mapping
                      != networkx_assignment(g, resolution, seed)]
        assert not mismatches

    def test_graphs_need_three_levels(self, oracle_graphs):
        """The oracle graphs exercise the aggregation: some take networkx
        three levels or more."""
        levels = {name: sum(1 for _ in nx.community.louvain_partitions(g, seed=0))
                  for name, (g, _) in oracle_graphs.items() if name.startswith("random-")}
        assert sum(1 for n in levels.values() if n >= 3) >= 3, levels

    @pytest.mark.parametrize("resolution", [0, -1, float("nan"), float("inf"), "1",
                                            None, True])
    def test_bad_resolution_rejected(self, resolution):
        graph = build_citation_graph(triangles_corpus())
        with pytest.raises(ValueError, match="resolution must be a finite number > 0"):
            cluster_citation_graph(graph, resolution=resolution)

    @pytest.mark.parametrize("seed", [1.5, "1", None, True])
    def test_bad_seed_rejected(self, seed):
        graph = build_citation_graph(triangles_corpus())
        with pytest.raises(ValueError, match="seed must be an int"):
            cluster_citation_graph(graph, seed=seed)


class TestAssignmentIO:
    def test_load_five_lines(self):
        corpus = Corpus("c", [record(f"r{i}") for i in range(5)])
        text = "".join(f"r{i}\tc{i % 2}\n" for i in range(5))
        assignment = load_cluster_assignment(io.StringIO(text), corpus)
        assert len(assignment.mapping) == 5

    def test_unknown_id_named_in_error(self):
        corpus = Corpus("c", [record("r0")])
        with pytest.raises(ValueError, match="bogus"):
            load_cluster_assignment(io.StringIO("bogus\tc1\n"), corpus)

    def test_id_on_two_lines_rejected(self):
        corpus = Corpus("c", [record(f"r{i}") for i in range(3)])
        text = "r0\tc0\nr1\tc0\n\nr0\tc1\n"
        with pytest.raises(ValueError,
                           match="^line 4: internal_id 'r0' already assigned on line 1$"):
            load_cluster_assignment(io.StringIO(text), corpus)

    def test_round_trip(self):
        corpus = Corpus("c", [record(f"r{i}") for i in range(4)])
        assignment = ClusterAssignment({f"r{i}": f"c{i % 2}" for i in range(4)})
        sink = io.StringIO()
        save_cluster_assignment(assignment, sink)
        again = load_cluster_assignment(io.StringIO(sink.getvalue()), corpus)
        assert again.mapping == assignment.mapping


def make_fixture(cluster_sizes, seeds_per_cluster):
    """Corpus + assignment + seed result with given per-cluster seed counts."""
    records, mapping, seeds = [], {}, set()
    for ci, (size, n_seeds) in enumerate(zip(cluster_sizes, seeds_per_cluster)):
        for i in range(size):
            rid = f"c{ci}n{i}"
            records.append(record(rid))
            mapping[rid] = f"c{ci}"
            if i < n_seeds:
                seeds.add(rid)
    corpus = Corpus("c", records)
    result = ResultSet("s", corpus, seeds)
    return corpus, ClusterAssignment(mapping), result


class TestEnhancement:
    def test_fixture_seven_member_cluster(self):
        # c0: 7 members with 2 seeds (share 0.286 >= 0.15)
        # c1: 3 members with 0 seeds (share 0 < 0.15)
        corpus, assignment, result = make_fixture([7, 3], [2, 0])
        enhanced, _ = enhance_by_cluster_threshold(result, assignment, 0.15,
                                                   corpus)
        assert enhanced.members == {f"c0n{i}" for i in range(7)}

    def test_keyword_free_member_of_qualifying_cluster_included(self):
        corpus, assignment, result = make_fixture([10], [2])
        enhanced, _ = enhance_by_cluster_threshold(result, assignment, 0.15,
                                                   corpus)
        assert "c0n9" in enhanced.members  # never matched a seed query

    def test_seed_member_of_subthreshold_cluster_excluded(self):
        corpus, assignment, result = make_fixture([10], [1])  # share 0.1
        enhanced, report = enhance_by_cluster_threshold(result, assignment,
                                                        0.15, corpus)
        assert "c0n0" not in enhanced.members
        assert report.seed_members_lost == 1

    def test_boundary_share_qualifies(self):
        corpus, assignment, result = make_fixture([20], [3])  # exactly 0.15
        enhanced, _ = enhance_by_cluster_threshold(result, assignment, 0.15,
                                                   corpus)
        assert len(enhanced.members) == 20

    def test_theta_zero_includes_all_assigned(self):
        corpus, assignment, result = make_fixture([5, 4, 3], [1, 0, 0])
        enhanced, _ = enhance_by_cluster_threshold(result, assignment, 0.0,
                                                   corpus)
        assert enhanced.members == frozenset(assignment.mapping)

    def test_theta_above_max_share_empties(self):
        corpus, assignment, result = make_fixture([5, 4], [2, 1])
        enhanced, _ = enhance_by_cluster_threshold(result, assignment, 0.9,
                                                   corpus)
        assert enhanced.members == frozenset()

    def test_invalid_threshold(self):
        corpus, assignment, result = make_fixture([3], [1])
        with pytest.raises(ValueError):
            enhance_by_cluster_threshold(result, assignment, 1.5, corpus)

    def test_unassigned_seed_becomes_singleton(self):
        corpus, assignment, result = make_fixture([4], [1])
        loner = record("loner")
        corpus2 = Corpus("c", list(corpus) + [loner])
        result2 = ResultSet("s", corpus2, set(result.members) | {"loner"})
        enhanced, report = enhance_by_cluster_threshold(result2, assignment,
                                                        0.25, corpus2)
        assert "loner" in enhanced.members
        assert report.singleton_members == 1

    @pytest.mark.parametrize("seed", range(5))
    def test_randomized_laws(self, seed):
        rng = random.Random(seed)
        n_clusters = rng.randint(1, 50)
        sizes = [rng.randint(1, 12) for _ in range(n_clusters)]
        seeds = [rng.randint(0, s) for s in sizes]
        corpus, assignment, result = make_fixture(sizes, seeds)
        clusters = assignment.clusters()
        thetas = [0.0, 0.05, 0.15, 0.5, 1.0]
        outputs = []
        for theta in thetas:
            enhanced, _ = enhance_by_cluster_threshold(result, assignment,
                                                       theta, corpus)
            outputs.append(enhanced.members)
            # union of whole clusters
            for members in clusters.values():
                overlap = enhanced.members & members
                assert overlap in (set(), frozenset()) or overlap == members
        # monotone in theta
        for small, large in zip(outputs, outputs[1:]):
            assert large <= small
        assert outputs[0] == frozenset(assignment.mapping)

    def test_label_permutation_invariant(self):
        corpus, assignment, result = make_fixture([6, 5], [2, 1])
        renamed = ClusterAssignment(
            {k: {"c0": "zz", "c1": "aa"}[v]
             for k, v in assignment.mapping.items()})
        out1, _ = enhance_by_cluster_threshold(result, assignment, 0.15, corpus)
        out2, _ = enhance_by_cluster_threshold(result, renamed, 0.15, corpus)
        assert out1.members == out2.members

    def test_window_limited_shares(self):
        # 2 of 10 members are seeds but only 4 members are in the window;
        # window-limited share 2/4 passes a 0.5 threshold, whole-corpus 0.2
        # does not.
        records = [record(f"n{i}", year=2016 if i < 4 else 2012)
                   for i in range(10)]
        corpus = Corpus("c", records)
        assignment = ClusterAssignment({f"n{i}": "c0" for i in range(10)})
        result = ResultSet("s", corpus, {"n0", "n1"})
        eligible = {f"n{i}" for i in range(4)}
        windowed, _ = enhance_by_cluster_threshold(
            result, assignment, 0.5, corpus, eligible=eligible)
        whole, _ = enhance_by_cluster_threshold(result, assignment, 0.5, corpus)
        assert windowed.members == frozenset(eligible)
        assert whole.members == frozenset()
