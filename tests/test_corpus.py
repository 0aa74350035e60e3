import json
import random

import pytest
from hypothesis import given, strategies as st

from sdglab.corpus import (Corpus, PublicationRecord, YearWindow, load_corpus_file,
                           load_coverage_file, normalize_doi)
from sdglab.index import build_index
from sdglab.rounding import percent
from sdglab.strategy import ClassifiedTerm, ResultSet, SearchStrategy, run_strategy


def write_corpus(tmp_path, records):
    """A corpus file under `tmp_path` holding `records`, one per line."""
    path = tmp_path / "corpus.jsonl"
    path.write_text("\n".join(json.dumps(r) for r in records) + "\n", encoding="utf-8")
    return path


class TestNormalizeDoi:
    def test_lowercases(self):
        assert normalize_doi("10.1371/JOURNAL.PONE.0137275") == \
            "10.1371/journal.pone.0137275"

    def test_strips_url_prefix(self):
        assert normalize_doi("https://doi.org/10.1080/09540091.2017.1279126") == \
            "10.1080/09540091.2017.1279126"
        assert normalize_doi("http://doi.org/10.1/x") == "10.1/x"
        assert normalize_doi("doi:10.1/x") == "10.1/x"

    def test_whitespace_only_is_none(self):
        assert normalize_doi("   ") is None
        assert normalize_doi("") is None
        assert normalize_doi(None) is None

    def test_non_doi_is_none(self):
        assert normalize_doi("not-a-doi") is None
        assert normalize_doi("11.1234/x") is None

    @given(st.text(max_size=60))
    def test_idempotent(self, raw):
        first = normalize_doi(raw)
        if first is not None:
            assert normalize_doi(first) == first


class TestIngest:
    def test_three_record_fixture(self, tmp_path):
        recs = [{"id": f"r{i}", "title": "t", "year": 2016} for i in range(3)]
        corpus = load_corpus_file(write_corpus(tmp_path, recs))
        assert len(corpus) == 3

    def test_empty_abstract_accepted(self, tmp_path):
        corpus = load_corpus_file(write_corpus(
            tmp_path, [{"id": "a", "title": "t", "year": 2016, "abstract": ""}]))
        assert corpus["a"].abstract == ""

    def test_missing_required_key_names_line(self, tmp_path):
        recs = [{"id": "a", "title": "t", "year": 2016},
                {"id": "b", "title": "t"}]
        with pytest.raises(ValueError, match="line 2"):
            load_corpus_file(write_corpus(tmp_path, recs))

    @pytest.mark.parametrize("line, message", [
        (5, "record is not a JSON object"),
        (None, "record is not a JSON object"),
        ({"doi": 5}, "'doi' is not a string: 5"),
        ({"title": 5}, "'title' is not a string: 5"),
        ({"abstract": ["x"]}, r"'abstract' is not a string: \['x'\]"),
        ({"doc_type": 1}, "'doc_type' is not a string: 1"),
        ({"keywords": "climate change"},
         "'keywords' is not a list of strings: 'climate change'"),
        ({"keywords": [["climate"]]}, "'keywords' is not a list of strings"),
        ({"refs": "b"}, "'refs' is not a list of strings: 'b'"),
        ({"refs": [5]}, r"'refs' is not a list of strings: \[5\]"),
        ({"year": 2019.9}, r"'year' is not an integer: 2019\.9$"),
        ({"year": 2019.0}, r"'year' is not an integer: 2019\.0$"),
        ({"year": True}, "'year' is not an integer: True$"),
        ({"year": "２０１６"}, "'year' is not an integer: '２０１６'$"),
        ({"year": " 2016"}, "'year' is not an integer: ' 2016'$"),
        ({"year": [2016]}, r"'year' is not an integer: \[2016\]$"),
        ({"id": ["a"]}, r"'id' is not a string or an integer: \['a'\]$"),
        ({"id": True}, "'id' is not a string or an integer: True$"),
        ({"id": 1.5}, r"'id' is not a string or an integer: 1\.5$"),
        ({"keywords": 0}, "'keywords' is not a list of strings: 0$"),
        ({"keywords": False}, "'keywords' is not a list of strings: False$"),
        ({"refs": ""}, "'refs' is not a list of strings: ''$"),
        ({"refs": {}}, r"'refs' is not a list of strings: \{\}$"),
        ("[" * 10**5, r"invalid JSON \(nested too deeply\)$"),
        ('{"id": "b",', r"invalid JSON \(Expecting property name enclosed in double "
                       r"quotes\)$"),
        ({"id": ""}, "internal_id must be non-empty$"),
    ], ids=["int", "null", "doi-int", "title-int", "abstract-list", "doc-type-int",
            "keywords-string", "keywords-nested", "refs-string", "refs-int", "year-float",
            "year-integral-float", "year-bool", "year-fullwidth-digits", "year-space",
            "year-list", "id-list", "id-bool", "id-float", "keywords-zero",
            "keywords-false", "refs-empty-string", "refs-empty-object", "nested-too-deeply",
            "not-json", "id-empty"])
    def test_bad_record_names_line(self, tmp_path, line, message):
        """A record dict is completed with the required keys; a string is
        written as the line's raw text."""
        if isinstance(line, dict):
            line = {"id": "b", "title": "t", "year": 2016, **line}
        path = write_corpus(tmp_path, [{"id": "a", "title": "t", "year": 2016}])
        with open(path, "a", encoding="utf-8") as fh:
            fh.write((line if isinstance(line, str) else json.dumps(line)) + "\n")
        with pytest.raises(ValueError, match=f"^line 2: {message}"):
            load_corpus_file(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text('\n{"id": "a", "title": "t", "year": 2016}\n  \t\n\n'
                        '{"id": "b", "title": "t", "year": 2017}\n\n', encoding="utf-8")
        corpus = load_corpus_file(path)
        assert [r.internal_id for r in corpus] == ["a", "b"]

    def test_id_and_year_coerced(self, tmp_path):
        corpus = load_corpus_file(write_corpus(
            tmp_path, [{"id": 7, "title": "t", "year": "2016", "abstract": None,
                        "keywords": None, "refs": []}]))
        assert (corpus["7"].year, corpus["7"].abstract, corpus["7"].keywords) == \
            (2016, "", ())

    def test_duplicate_id_rejected(self, tmp_path):
        recs = [{"id": "a", "title": "t", "year": 2016}] * 2
        with pytest.raises(ValueError, match="duplicate"):
            load_corpus_file(write_corpus(tmp_path, recs))

    def test_doi_normalized_on_ingest(self, tmp_path):
        corpus = load_corpus_file(write_corpus(
            tmp_path, [{"id": "a", "title": "t", "year": 2016,
                        "doi": "https://doi.org/10.1/ABC"}]))
        assert corpus["a"].doi == "10.1/abc"

    def test_per_year_counts_match_file_scan(self, tmp_path):
        rng = random.Random(7)
        recs = [{"id": f"r{i}", "title": "t", "year": rng.randint(2010, 2020)}
                for i in range(1000)]
        corpus = load_corpus_file(write_corpus(tmp_path, recs))
        assert len(corpus) == 1000
        # oracle: direct scan of the raw dicts
        expected = {}
        for r in recs:
            expected[r["year"]] = expected.get(r["year"], 0) + 1
        got = {}
        for rec in corpus:
            got[rec.year] = got.get(rec.year, 0) + 1
        assert got == expected

    def test_coverage_superset_allowed(self):
        corpus = Corpus("c", [PublicationRecord("a", "t", 2016, doi="10.1/a")],
                        coverage=["10.1/zzz"])
        assert corpus.coverage == {"10.1/a", "10.1/zzz"}

    def test_coverage_file_must_list_record_dois(self, tmp_path):
        path = write_corpus(tmp_path, [
            {"id": "a", "title": "t", "year": 2016, "doi": "10.1/a"},
            {"id": "b", "title": "t", "year": 2016, "doi": "10.1/b"},
            {"id": "c", "title": "t", "year": 2016, "doi": "https://doi.org/10.1/C"},
            {"id": "d", "title": "t", "year": 2016}])
        coverage = tmp_path / "cov.txt"
        coverage.write_text("10.1/b\n10.1/zzz\n")
        with pytest.raises(ValueError, match=r"omits 2 record DOIs, e\.g\. '10\.1/a'"):
            load_corpus_file(path, coverage_path=coverage)
        coverage.write_text("10.1/b\n10.1/zzz\n10.1/A\ndoi:10.1/c\n")
        corpus = load_corpus_file(path, coverage_path=coverage)
        assert corpus.coverage == {"10.1/a", "10.1/b", "10.1/c", "10.1/zzz"}

    def test_coverage_file_normalizes(self, tmp_path):
        path = tmp_path / "cov.txt"
        path.write_text("https://doi.org/10.1/A\n10.2/b\n\nnot a doi\n")
        assert load_coverage_file(path) == {"10.1/a", "10.2/b"}


class TestFilterWindow:
    """The year window `run_strategy` applies to the matched records."""

    def records_for_years(self, years):
        return [PublicationRecord(f"r{i}", "t", y) for i, y in enumerate(years)]

    def filter_window(self, records, window):
        corpus = Corpus("c", records)
        strategy = SearchStrategy("s", (ClassifiedTerm('"t"', "general"),), window=window)
        result = run_strategy(strategy, build_index(corpus), corpus)
        return {corpus[m] for m in result.members}

    def test_boundaries_inclusive(self):
        recs = self.records_for_years([2014, 2015, 2019, 2020])
        kept = self.filter_window(recs, YearWindow(2015, 2019))
        assert {r.year for r in kept} == {2015, 2019}

    def test_empty_input(self):
        assert self.filter_window([], YearWindow(2015, 2019)) == set()

    def test_matches_linear_scan_oracle(self):
        rng = random.Random(3)
        recs = self.records_for_years([rng.randint(2010, 2024)
                                       for _ in range(500)])
        window = YearWindow(2015, 2019)
        expected = {r for r in recs if 2015 <= r.year <= 2019}
        assert self.filter_window(recs, window) == expected

    def test_subset_and_idempotent(self):
        recs = self.records_for_years([2013, 2016, 2018, 2025])
        window = YearWindow(2015, 2019)
        once = self.filter_window(recs, window)
        assert once <= set(recs)
        assert self.filter_window(sorted(once, key=lambda r: r.internal_id),
                                  window) == once

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            YearWindow(2019, 2015)


def result_with_doi_counts(with_doi: int, total: int) -> ResultSet:
    records = []
    for i in range(total):
        doi = f"10.1/{i}" if i < with_doi else None
        records.append(PublicationRecord(f"r{i}", "t", 2016, doi=doi))
    corpus = Corpus("c", records)
    return ResultSet("s", corpus, {r.internal_id for r in records})


class TestDoiShare:
    """The Table 3 DOI share as `run_pipeline` reports it:
    percent(doi_record_count, members), over an empty result 0.0."""

    def test_elsevier_row(self):
        assert percent(195734, 214369) == 91.3

    def test_dimensions_row(self):
        assert percent(203447, 205190) == 99.2

    def test_no_dois(self):
        result = result_with_doi_counts(0, 10)
        assert percent(result.doi_record_count, len(result.members)) == 0.0

    def test_empty_result_is_zero(self):
        corpus = Corpus("c", [PublicationRecord("a", "t", 2016)])
        empty = ResultSet("s", corpus, set())
        assert percent(empty.doi_record_count, len(empty.members)) == 0.0
