"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import functools
import hashlib
import random

from conftest import DATA_DIR, random_corpus
from oracle import evaluate_by_scan
from sdglab.clustering import enhance_by_cluster_threshold
from sdglab.corpus import Corpus, PublicationRecord
from sdglab.index import build_index, tokenize
from sdglab.overlap import SEGMENT_ORDER, decompose_surplus, shares_from_counts
from sdglab.pipeline import PipelineConfig, run_pipeline
from sdglab.query import Proximity, evaluate
from sdglab.rounding import percent
from sdglab.strategy import load_strategy_file, run_strategy, term_class_summary
from sdglab.termmap import TermMapConfig, extract_terms
from test_clustering import make_fixture
from test_query import random_ast
from test_strategy import climate_strategy, exclusion_corpus
from test_termmap import doc, repeated_docs


def criterion(name):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"FAIL  {name}")
                raise
            print(f"PASS  {name}")
        return wrapper
    return decorate


@criterion("Table 3 DOI shares reproduce printed percentages (±0.05 pp; "
           "row 2's printed share conflicts with its own counts, see note)")
def test_table3_shares():
    # Row 2 prints 83.7%, but its own counts give 156,010/166,528 = 93.68%,
    # exactly ten points higher — a single-digit typo in the source table
    # (the other three rows all agree with their counts to within 0.05 pp).
    # We hold the share run_pipeline reports, percent(with_doi, total), to
    # the value the counts imply, 93.7%.
    rows = [(214369, 195734, 91.3), (166528, 156010, 93.7),
            (177154, 164800, 93.0), (205190, 203447, 99.2)]
    for total, with_doi, expected in rows:
        assert abs(percent(with_doi, total) - expected) <= 0.05


@criterion("Table 5: all 30 shares reproduce (±0.1 pp), rows sum to 100 ± 0.2")
def test_table5_shares():
    rows = [
        ((44764, 102702, 48269, 104792, 2949), (14.8, 33.8, 15.9, 34.5, 1.0)),
        ((44764, 69502, 81469, 80421, 2910), (16.0, 24.9, 29.2, 28.8, 1.0)),
        ((7103, 104613, 84019, 82587, 36831), (2.3, 33.2, 26.7, 26.2, 11.7)),
        ((0, 102564, 53446, 111354, 0), (0.0, 38.4, 20.0, 41.6, 0.0)),
        ((76389, 84629, 42429, 112522, 1059), (24.1, 26.7, 13.4, 35.5, 0.3)),
        ((76389, 68933, 58125, 105494, 1181), (24.6, 22.2, 18.7, 34.0, 0.4)),
    ]
    for counts, printed in rows:
        shares = shares_from_counts(dict(zip(SEGMENT_ORDER, counts)),
                                    sum(counts))
        for seg, expected in zip(SEGMENT_ORDER, printed):
            assert abs(shares[seg] - expected) <= 0.1
        assert abs(sum(shares.values()) - 100.0) <= 0.2


@criterion("Table 4: shipped strategy files yield the printed tallies exactly")
def test_table4_tallies():
    expected = {
        "elsevier": ((210, 62, 186), 458, (46, 14, 41)),
        "strings": ((70, 24, 4), 98, (71, 24, 4)),
        "siris": ((119, 55, 54), 228, (52, 24, 24)),
        "dimensions": ((34, 9, 2), 45, (76, 20, 4)),
    }
    for name, (counts, total, shares) in expected.items():
        summary = term_class_summary(
            load_strategy_file(DATA_DIR / "strategies" / f"{name}.json"))
        assert (summary["counts"]["general"], summary["counts"]["policy"],
                summary["counts"]["technical"]) == counts
        assert summary["total"] == total
        assert (summary["shares"]["general"], summary["shares"]["policy"],
                summary["shares"]["technical"]) == shares


@criterion("Query evaluator equals brute-force scan oracle "
           "(500 docs x 200 random queries, 0 mismatches)")
def test_query_oracle_equivalence():
    corpus = random_corpus(101, 500)
    index = build_index(corpus)
    rng = random.Random(20240815)
    mismatches = sum(
        1 for _ in range(200)
        if (lambda ast: evaluate(ast, index) != evaluate_by_scan(ast, corpus))
        (random_ast(rng)))
    assert mismatches == 0


@criterion("Proximity fidelity on the published worked examples")
def test_proximity_fidelity():
    corpus = Corpus("c", [
        PublicationRecord("hazards", "hazards related to climate change", 2016),
        PublicationRecord("phrase", "climate change impact", 2016),
        PublicationRecord("changing", "changing climate and its impact on health", 2016),
    ])
    index = build_index(corpus)
    assert evaluate(Proximity(("climate", "related", "hazards"), 3), index) == {"hazards"}
    assert evaluate(Proximity(("climate", "impact"), 3), index) == {"phrase", "changing"}


@criterion("Exclusion phrase removes a seed-matching document")
def test_exclusion_behavior():
    corpus = exclusion_corpus()
    result = run_strategy(climate_strategy(), build_index(corpus), corpus)
    assert "drop" not in result.members  # contains "prehistoric climate"
    assert "keep" in result.members


@criterion("Cluster-threshold enhancement laws hold on randomized fixtures")
def test_cluster_threshold_laws():
    rng = random.Random(55)
    for trial in range(10):
        sizes = [rng.randint(1, 10) for _ in range(rng.randint(1, 50))]
        seeds = [rng.randint(0, s) for s in sizes]
        corpus, assignment, result = make_fixture(sizes, seeds)
        clusters = assignment.clusters()
        previous = None
        for theta in (0.0, 0.05, 0.15, 0.5, 1.0):
            out, _ = enhance_by_cluster_threshold(result, assignment, theta,
                                                  corpus)
            for members in clusters.values():
                assert out.members & members in (frozenset(), members)
            if previous is not None:
                assert out.members <= previous
            previous = out.members
            if theta == 0.0:
                assert out.members == frozenset(assignment.mapping)
    # exact 15% boundary qualifies
    corpus, assignment, result = make_fixture([20], [3])
    out, _ = enhance_by_cluster_threshold(result, assignment, 0.15, corpus)
    assert len(out.members) == 20
    # seeded member of sub-threshold cluster excluded
    corpus, assignment, result = make_fixture([10], [1])
    out, _ = enhance_by_cluster_threshold(result, assignment, 0.15, corpus)
    assert "c0n0" not in out.members
    # keyword-free member of qualifying cluster included
    corpus, assignment, result = make_fixture([10], [2])
    out, _ = enhance_by_cluster_threshold(result, assignment, 0.15, corpus)
    assert "c0n9" in out.members


@criterion("Surplus decomposition partitions only_a on 1,000 random fixtures; "
           "equal coverage forces empty coverage surpluses")
def test_decomposition_partition_identity():
    rng = random.Random(66)
    for _ in range(1000):
        universe = [f"10.1/{i}" for i in range(rng.randint(1, 50))]
        only_a = set(rng.sample(universe, rng.randint(0, len(universe))))
        coverage = set(rng.sample(universe, rng.randint(0, len(universe))))
        method, cov = decompose_surplus(only_a, coverage)
        assert len(only_a) == len(method) + len(cov)
        assert method & cov == set()
        assert method | cov == only_a
    full = {f"10.1/{i}" for i in range(50)}
    a_only = set(rng.sample(sorted(full), 20))
    method, cov = decompose_surplus(a_only, full)
    assert cov == set()


@criterion("Term-map retention boundary, score antisymmetry and bounds, "
           "tally oracle on 100-doc fixture")
def test_termmap_properties():
    config = TermMapConfig(min_occurrences=70, stoplist=frozenset())
    assert extract_terms(repeated_docs("boundaryterm", 69, "a"), [],
                         config) == []
    retained = extract_terms(repeated_docs("boundaryterm", 70, "a"), [],
                             config)
    assert [t.term for t in retained] == ["boundaryterm"]

    rng = random.Random(77)
    words = ["climate", "carbon", "energy", "ocean", "risk"]
    docs_a = [doc(f"a{i}", " ".join(rng.choices(words, k=5)),
                  " ".join(rng.choices(words, k=10))) for i in range(50)]
    docs_b = [doc(f"b{i}", " ".join(rng.choices(words, k=5)),
                  " ".join(rng.choices(words, k=10))) for i in range(50)]
    small = TermMapConfig(min_occurrences=5, stoplist=frozenset())
    fwd = extract_terms(docs_a, docs_b, small)
    rev = {t.term: t for t in extract_terms(docs_b, docs_a, small)}
    assert {t.term for t in fwd} == set(rev)
    for t in fwd:
        assert -1.0 <= t.score <= 1.0
        assert t.score == -rev[t.term].score

    # oracle: exhaustive per-document n-gram tally
    def tally(docs):
        out = {}
        for d in docs:
            grams = set()
            for text in (d.title, d.abstract):
                toks = [w for w, _ in tokenize(text)]
                for n in (1, 2, 3):
                    for i in range(len(toks) - n + 1):
                        grams.add(" ".join(toks[i:i + n]))
            for g in grams:
                out[g] = out.get(g, 0) + 1
        return out

    ta, tb = tally(docs_a), tally(docs_b)
    expected = {g: (ta.get(g, 0), tb.get(g, 0)) for g in set(ta) | set(tb)
                if ta.get(g, 0) + tb.get(g, 0) >= 5}
    assert {t.term: (t.occ_a, t.occ_b) for t in fwd} == expected


@criterion("Two full pipeline runs on the demo config are byte-identical")
def test_pipeline_determinism(tmp_path):
    digests = []
    for run in ("one", "two"):
        out = tmp_path / run
        run_pipeline(PipelineConfig.load(DATA_DIR / "demo" / "config.json",
                                         output_dir=out))
        digests.append({
            str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*"))
            if p.is_file() and p.name != "manifest.json"})
    assert digests[0] == digests[1]
    assert any(name.endswith(".svg") for name in digests[0])
    assert any(name.endswith(".html") for name in digests[0])
