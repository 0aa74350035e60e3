import json
import random
import re

import pytest

from conftest import DATA_DIR, random_corpus
from oracle import match_doc
from sdglab.corpus import Corpus, PublicationRecord, YearWindow
from sdglab.index import build_index
from sdglab.strategy import (ClassifiedTerm, EnhancementSpec, SearchStrategy,
                             load_strategy_file, run_strategy, term_class_summary)
from sdglab.query import parse_query


def strategy_doc(seeds, exclusions=(), window=None):
    return {
        "name": "fixture",
        "fields": ["title", "abstract", "keywords"],
        "window": window or {"start": 2015, "end": 2019},
        "seeds": seeds,
        "exclusions": list(exclusions),
    }


def load_doc(tmp_path, doc) -> SearchStrategy:
    """Write a strategy document to its file, `<name>.json`, and load it."""
    path = tmp_path / f"{doc['name']}.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return load_strategy_file(path)


class TestLoadStrategy:
    def test_counts_preserved(self, tmp_path):
        doc = strategy_doc(
            [{"query": '"climate change"', "class": "general"}] * 1
            + [{"query": '"warming"', "class": "general"},
               {"query": '"sea level"', "class": "general"},
               {"query": '"carbon tax"', "class": "policy"}])
        strategy = load_doc(tmp_path, doc)
        assert len(strategy.seed_terms) == 4

    def test_unknown_class_rejected(self, tmp_path):
        doc = strategy_doc([{"query": '"climate"', "class": "colloquial"}])
        with pytest.raises(ValueError, match="colloquial"):
            load_doc(tmp_path, doc)

    def test_unparsable_query_names_it(self, tmp_path):
        doc = strategy_doc([{"query": '"unbalanced', "class": "general"}])
        with pytest.raises(ValueError, match="unbalanced"):
            load_doc(tmp_path, doc)

    def test_empty_seeds_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            load_doc(tmp_path, strategy_doc([]))

    @pytest.mark.parametrize("key, value, message", [
        ("seeds", "abc", "seeds must be a list: 'abc'"),
        ("seeds", [5], "seed must be an object with a string query: 5"),
        ("seeds", [{"class": "general"}],
         "seed must be an object with a string query: {'class': 'general'}"),
        ("seeds", [{"query": 5}], "seed must be an object with a string query"),
        ("exclusions", [5], r"exclusions must be a list of strings: \[5\]"),
        ("exclusions", "climate", "exclusions must be a list of strings: 'climate'"),
        ("seeds", [{"query": '"c*"', "class": "general"}],
         "query '\"c\\*\"' does not parse: wildcard stem 'c' shorter than 2 characters"),
        ("exclusions", ['"c* change"'], "wildcard stem 'c' shorter than 2 characters"),
    ], ids=["seeds-string", "seed-int", "seed-no-query", "query-int", "exclusion-int",
            "exclusions-string", "seed-short-stem", "exclusion-short-stem"])
    def test_bad_seeds_or_exclusions_rejected(self, tmp_path, key, value, message):
        doc = {**strategy_doc([{"query": '"climate"', "class": "general"}]), key: value}
        with pytest.raises(ValueError, match=message):
            load_doc(tmp_path, doc)

    @pytest.mark.parametrize("fields", [
        [], ["title", "title"], ["title", "body"], ["Title"], "title", [["title"]],
    ], ids=["empty", "duplicate", "unknown", "wrong-case", "string", "nested"])
    def test_bad_fields_rejected(self, tmp_path, fields):
        doc = {**strategy_doc([{"query": '"climate"', "class": "general"}]),
               "fields": fields}
        with pytest.raises(ValueError, match="fields must be a non-empty list"):
            load_doc(tmp_path, doc)

    def test_fields_default_and_subset(self, tmp_path):
        doc = strategy_doc([{"query": '"climate"', "class": "general"}])
        del doc["fields"]
        assert load_doc(tmp_path, doc).fields == ("title", "abstract", "keywords")
        doc["fields"] = ["keywords", "title"]
        assert load_doc(tmp_path, doc).fields == ("keywords", "title")

    @pytest.mark.parametrize("key, value, message", [
        ("seed", 1.5, "seed must be an int"),
        ("seed", "1", "seed must be an int"),
        ("seed", True, "seed must be an int"),
        ("resolution", "1", "resolution must be a finite number > 0"),
        ("resolution", 0, "resolution must be a finite number > 0"),
        ("resolution", -1, "resolution must be a finite number > 0"),
        ("resolution", float("nan"), "resolution must be a finite number > 0"),
        ("resolution", float("inf"), "resolution must be a finite number > 0"),
        ("resolution", True, "resolution must be a finite number > 0"),
        ("threshold", "0.2", "threshold must be a number"),
        ("threshold", None, "threshold must be a number"),
        ("threshold", True, "threshold must be a number"),
        ("threshold", 2, r"threshold must be in \[0, 1\]"),
        ("threshold", -0.1, r"threshold must be in \[0, 1\]"),
        ("threshold", float("nan"), r"threshold must be in \[0, 1\]"),
        ("whole_corpus_shares", "no", "whole_corpus_shares must be a bool"),
        ("whole_corpus_shares", 0, "whole_corpus_shares must be a bool"),
        ("assignment_source", 5, "assignment_source must be a string"),
        ("kind", "louvain", "^unknown enhancement kind: 'louvain'$"),
        ("kind", None, "^unknown enhancement kind: None$"),
    ], ids=["seed-float", "seed-string", "seed-bool", "resolution-string",
            "resolution-zero", "resolution-negative", "resolution-nan",
            "resolution-inf", "resolution-bool", "threshold-string", "threshold-null",
            "threshold-bool", "threshold-two", "threshold-negative", "threshold-nan",
            "shares-string", "shares-int", "source-int", "kind-other", "kind-null"])
    def test_bad_enhancement_field_rejected(self, tmp_path, key, value, message):
        doc = {**strategy_doc([{"query": '"climate"', "class": "general"}]),
               "enhancement": {"kind": "cluster_threshold", key: value}}
        with pytest.raises(ValueError, match=message):
            load_doc(tmp_path, doc)

    def test_enhancement_not_an_object_rejected(self, tmp_path):
        doc = {**strategy_doc([{"query": '"climate"', "class": "general"}]),
               "enhancement": ["cluster_threshold"]}
        with pytest.raises(ValueError, match="enhancement must be an object"):
            load_doc(tmp_path, doc)

    @pytest.mark.parametrize("value", [False, 0, "", []],
                             ids=["false", "zero", "empty-string", "empty-list"])
    def test_falsy_enhancement_rejected(self, tmp_path, value):
        """Only null or absence is no enhancement."""
        doc = {**strategy_doc([{"query": '"climate"', "class": "general"}]),
               "enhancement": value}
        with pytest.raises(ValueError,
                           match=f"^enhancement must be an object: {re.escape(repr(value))}$"):
            load_doc(tmp_path, doc)

    @pytest.mark.parametrize("value, spec", [(None, None), ({}, EnhancementSpec())],
                             ids=["null", "empty-object"])
    def test_null_is_no_enhancement_and_empty_object_all_defaults(self, tmp_path, value,
                                                                   spec):
        doc = {**strategy_doc([{"query": '"climate"', "class": "general"}]),
               "enhancement": value}
        assert load_doc(tmp_path, doc).enhancement == spec

    def test_valid_enhancement_fields_load(self, tmp_path):
        doc = {**strategy_doc([{"query": '"climate"', "class": "general"}]),
               "enhancement": {"threshold": 0, "resolution": 2, "seed": -3,
                               "whole_corpus_shares": True}}
        spec = load_doc(tmp_path, doc).enhancement
        assert (spec.threshold, spec.resolution, spec.seed, spec.whole_corpus_shares) == \
            (0, 2, -3, True)

    def test_left_out_keys_take_dataclass_defaults(self, tmp_path):
        doc = {"name": "fixture", "seeds": [{"query": '"climate"'}],
               "enhancement": {"seed": 7}}
        assert load_doc(tmp_path, doc) == SearchStrategy(
            "fixture", (ClassifiedTerm('"climate"'),), enhancement=EnhancementSpec(seed=7))

    @pytest.mark.parametrize("window", [
        {"start": 2015}, {"end": 2019}, {"start": "2015", "end": 2019},
        {"start": 2015, "end": 2019.0}, {"start": True, "end": 2019}, [2015, 2019],
        "2015-2019",
    ], ids=["no-end", "no-start", "string-start", "float-end", "bool-start", "list",
            "string"])
    def test_bad_window_rejected(self, tmp_path, window):
        doc = strategy_doc([{"query": '"climate"', "class": "general"}])
        doc["window"] = window
        with pytest.raises(ValueError, match="window must be an object with int"):
            load_doc(tmp_path, doc)

    def test_name_not_its_stem_rejected(self, tmp_path):
        path = tmp_path / "fixture_v2.json"
        path.write_text(json.dumps(strategy_doc([{"query": '"climate"'}])), encoding="utf-8")
        with pytest.raises(ValueError,
                           match="name 'fixture' is not the file stem 'fixture_v2'"):
            load_strategy_file(path)

    @pytest.mark.parametrize("key, message", [
        ("name", "name None is not the file stem 'fixture'"),
        ("seeds", "seeds must be a list: None"),
    ], ids=["name", "seeds"])
    def test_missing_name_or_seeds_rejected(self, tmp_path, key, message):
        doc = strategy_doc([{"query": '"climate"'}])
        del doc[key]
        path = tmp_path / "fixture.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_strategy_file(path)

    def test_not_an_object_rejected(self, tmp_path):
        path = tmp_path / "fixture.json"
        path.write_text("[]", encoding="utf-8")
        with pytest.raises(ValueError, match="not a JSON object"):
            load_strategy_file(path)


def exclusion_corpus():
    return Corpus("c", [
        PublicationRecord("keep", "Climate action now", 2016),
        PublicationRecord("drop", "Climate variability", 2017,
                          abstract="traces of prehistoric climate"),
        PublicationRecord("old", "Climate change", 2012),
    ])


def climate_strategy(**kwargs):
    defaults = dict(
        name="s",
        seed_terms=(ClassifiedTerm("climat*", "general"),),
        exclusion_terms=('"prehistoric climate"',),
        window=YearWindow(2015, 2019),
    )
    defaults.update(kwargs)
    return SearchStrategy(**defaults)


class TestRunStrategy:
    def test_exclusion_removes_seed_match(self):
        corpus = exclusion_corpus()
        result = run_strategy(climate_strategy(), build_index(corpus), corpus)
        assert "drop" not in result.members
        assert "keep" in result.members

    def test_window_applied(self):
        corpus = exclusion_corpus()
        result = run_strategy(climate_strategy(), build_index(corpus), corpus)
        assert "old" not in result.members

    def test_no_match_gives_empty_result(self):
        corpus = exclusion_corpus()
        strategy = climate_strategy(
            seed_terms=(ClassifiedTerm('"absent phrase"', "general"),),
            exclusion_terms=())
        result = run_strategy(strategy, build_index(corpus), corpus)
        assert len(result) == 0

    def test_matches_per_document_oracle(self):
        corpus = random_corpus(77, 300)
        index = build_index(corpus)
        seeds = ['"climate change"', '"sea level"~2', "warm*",
                 '"carbon emission"', '"energy" AND "policy"']
        exclusions = ['"health"', '"forest city"']
        strategy = SearchStrategy(
            name="s",
            seed_terms=tuple(ClassifiedTerm(q, "general") for q in seeds),
            exclusion_terms=tuple(exclusions),
            window=YearWindow(2015, 2019),
        )
        result = run_strategy(strategy, index, corpus)

        expected = set()
        for rec in corpus:
            hit = any(match_doc(parse_query(q), rec) for q in seeds)
            excluded = any(match_doc(parse_query(q), rec) for q in exclusions)
            if hit and not excluded and 2015 <= rec.year <= 2019:
                expected.add(rec.internal_id)
        assert result.members == expected

    def test_order_invariance(self):
        corpus = random_corpus(78, 100)
        index = build_index(corpus)
        seeds = [ClassifiedTerm('"climate"', "general"),
                 ClassifiedTerm("warm*", "general"),
                 ClassifiedTerm('"sea level"', "general")]
        exclusions = ('"policy"', '"health"')
        rng = random.Random(1)
        base = None
        for _ in range(4):
            shuffled = list(seeds)
            rng.shuffle(shuffled)
            exc = list(exclusions)
            rng.shuffle(exc)
            strategy = SearchStrategy("s", tuple(shuffled), tuple(exc),
                                      window=YearWindow(2012, 2022))
            members = run_strategy(strategy, index, corpus).members
            base = members if base is None else base
            assert members == base

    def test_exclusion_monotonicity(self):
        corpus = random_corpus(79, 100)
        index = build_index(corpus)
        window = YearWindow(2012, 2022)
        seeds = (ClassifiedTerm('"climate"', "general"),)
        without = run_strategy(
            SearchStrategy("s", seeds, (), window=window), index, corpus)
        with_exc = run_strategy(
            SearchStrategy("s", seeds, ('"policy"',), window=window),
            index, corpus)
        assert with_exc.members <= without.members

    def test_seed_monotonicity(self):
        corpus = random_corpus(80, 100)
        index = build_index(corpus)
        window = YearWindow(2012, 2022)
        small = run_strategy(SearchStrategy(
            "s", (ClassifiedTerm('"climate"', "general"),), (),
            window=window), index, corpus)
        big = run_strategy(SearchStrategy(
            "s", (ClassifiedTerm('"climate"', "general"),
                  ClassifiedTerm('"energy"', "general")), (),
            window=window), index, corpus)
        assert small.members <= big.members


SHIPPED_TALLIES = {
    "elsevier": ({"general": 210, "policy": 62, "technical": 186}, 458,
                 {"general": 46, "policy": 14, "technical": 41}),
    "strings": ({"general": 70, "policy": 24, "technical": 4}, 98,
                {"general": 71, "policy": 24, "technical": 4}),
    "siris": ({"general": 119, "policy": 55, "technical": 54}, 228,
              {"general": 52, "policy": 24, "technical": 24}),
    "dimensions": ({"general": 34, "policy": 9, "technical": 2}, 45,
                   {"general": 76, "policy": 20, "technical": 4}),
}


class TestTermClassSummary:
    @pytest.mark.parametrize("name", sorted(SHIPPED_TALLIES))
    def test_shipped_strategies_match_published_tallies(self, name):
        strategy = load_strategy_file(DATA_DIR / "strategies" / f"{name}.json")
        summary = term_class_summary(strategy)
        counts, total, shares = SHIPPED_TALLIES[name]
        assert summary["counts"] == counts
        assert summary["total"] == total
        assert summary["shares"] == shares

    def test_all_one_class(self):
        strategy = SearchStrategy(
            "s", tuple(ClassifiedTerm(f'"term {i}"', "general")
                       for i in range(7)))
        summary = term_class_summary(strategy)
        assert summary["counts"] == {"general": 7, "policy": 0, "technical": 0}
        assert summary["total"] == 7

    def test_shares_sum_near_100(self):
        for name in SHIPPED_TALLIES:
            strategy = load_strategy_file(
                DATA_DIR / "strategies" / f"{name}.json")
            shares = term_class_summary(strategy)["shares"]
            assert 99 <= sum(shares.values()) <= 101


class TestParseOnce:
    def test_terms_and_exclusions_carry_their_ast(self):
        strategy = climate_strategy()
        assert strategy.seed_terms[0].ast == parse_query("climat*")
        assert strategy.exclusion_asts == (parse_query('"prehistoric climate"'),)

    def test_ast_is_left_out_of_equality(self):
        assert ClassifiedTerm('"sea level"', "general") == \
            ClassifiedTerm('"sea level"', "general")
        assert ClassifiedTerm("a", "general") != ClassifiedTerm("a", "policy")

    def test_run_does_not_parse_again(self, monkeypatch):
        corpus = exclusion_corpus()
        strategy = climate_strategy()
        expected = run_strategy(strategy, build_index(corpus), corpus).members

        def no_parse(text):
            raise AssertionError(f"parsed again: {text!r}")

        monkeypatch.setattr("sdglab.strategy.parse_query", no_parse)
        assert run_strategy(strategy, build_index(corpus), corpus).members == expected

    def test_bad_query_fails_at_construction(self):
        with pytest.raises(ValueError, match="does not parse"):
            ClassifiedTerm('"unbalanced', "general")
        with pytest.raises(ValueError, match="does not parse"):
            climate_strategy(exclusion_terms=("(",))

    @pytest.mark.parametrize("query, offset", [
        ("a" * 10**5 + '"', 10**5), ("[" + "b" * 10**5 + "](x)", 1),
    ], ids=["long-query", "long-field"])
    def test_bad_long_query_quoted_as_an_excerpt(self, query, offset):
        with pytest.raises(ValueError) as exc:
            ClassifiedTerm(query)
        message = str(exc.value)
        assert message.startswith(f"query {query[:60]!r}… does not parse: ")
        assert message.endswith(f"(at offset {offset})")
        assert len(message) < 300
