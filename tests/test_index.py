import gc
import hashlib
import io
import json
import random

import pytest

from conftest import random_corpus
from sdglab.corpus import Corpus, PublicationRecord, load_corpus_file
from sdglab.index import (FIELDS, INDEX_MAGIC, INDEX_VERSION, PositionalIndex,
                          build_index, field_token_stream, load_index,
                          save_index, tokenize, tokenize_keywords,
                          wildcard_expand)


def run_count_oracle(text: str) -> int:
    # character scan counting alphanumeric runs (underscore separates)
    count, in_run = 0, False
    for ch in text:
        alnum = ch.isalnum() and ch != "_"
        if alnum and not in_run:
            count += 1
        in_run = alnum
    return count


class TestTokenize:
    def test_hyphen_splits(self):
        assert tokenize("Climate-related hazards!") == \
            [("climate", 0), ("related", 1), ("hazards", 2)]

    def test_empty(self):
        assert tokenize("") == []

    def test_digits_retained_and_slash_splits(self):
        assert tokenize("CO2 uptake/loss") == \
            [("co2", 0), ("uptake", 1), ("loss", 2)]

    def test_underscore_splits(self):
        assert [t for t, _ in tokenize("a_b")] == ["a", "b"]

    def test_counts_match_character_run_oracle(self):
        rng = random.Random(11)
        alphabet = "abc XY12-_/.,!é ö"
        for _ in range(200):
            text = "".join(rng.choices(alphabet, k=rng.randint(0, 60)))
            assert len(tokenize(text)) == run_count_oracle(text)

    def test_positions_strictly_increasing(self):
        toks = tokenize("one two three four")
        assert [p for _, p in toks] == sorted({p for _, p in toks})

    def test_keyword_gap(self):
        stream = tokenize_keywords(["climate change", "policy"])
        positions = dict((tok, pos) for tok, pos in stream)
        assert positions["change"] - positions["climate"] == 1
        assert positions["policy"] - positions["change"] > 50


def two_doc_corpus():
    return Corpus("c", [
        PublicationRecord("a", "Climate change adaptation", 2016,
                          abstract="the climate is warming",
                          keywords=("climate policy",)),
        PublicationRecord("b", "Solar energy", 2017,
                          abstract="renewable energy growth"),
    ])


class TestBuildIndex:
    def test_postings_by_hand(self):
        index = build_index(two_doc_corpus())
        assert index.postings["climate"] == [
            ("a", "title", (0,)),
            ("a", "abstract", (1,)),
            ("a", "keywords", (0,)),
        ]
        assert index.docs_with_token("energy", FIELDS) == {"b"}

    def test_rebuild_is_byte_identical(self):
        corpus = two_doc_corpus()
        sink1, sink2 = io.StringIO(), io.StringIO()
        save_index(build_index(corpus), sink1)
        save_index(build_index(corpus), sink2)
        assert sink1.getvalue() == sink2.getvalue()

    def test_order_insensitive(self):
        corpus = two_doc_corpus()
        reversed_corpus = Corpus("c", list(reversed(list(corpus))))
        sink1, sink2 = io.StringIO(), io.StringIO()
        save_index(build_index(corpus), sink1)
        save_index(build_index(reversed_corpus), sink2)
        assert sink1.getvalue() == sink2.getvalue()

    def test_total_positions_equal_token_count(self):
        corpus = random_corpus(42, 1000)
        index = build_index(corpus)
        stored = sum(len(positions) for entries in index.postings.values()
                     for _, _, positions in entries)
        expected = sum(len(field_token_stream(rec, fld))
                       for rec in corpus for fld in FIELDS)
        assert stored == expected

    def test_postings_reproducible_from_fields(self):
        corpus = random_corpus(43, 200)
        index = build_index(corpus)
        # exhaustive check: token in postings for (doc, field) iff it is in
        # the re-tokenized field
        streams = {(rec.internal_id, fld):
                   {tok for tok, _ in field_token_stream(rec, fld)}
                   for rec in corpus for fld in FIELDS}
        for tok, entries in index.postings.items():
            for doc, fld, _ in entries:
                assert tok in streams[(doc, fld)]
        for (doc, fld), toks in streams.items():
            for tok in toks:
                assert any(d == doc and f == fld
                           for d, f, _ in index.postings[tok])

    def test_round_trip_serialization(self):
        index = build_index(two_doc_corpus())
        sink = io.StringIO()
        save_index(index, sink)
        again = load_index(io.StringIO(sink.getvalue()))
        assert again.postings == index.postings
        assert again.doc_count == index.doc_count

    def test_load_rejects_wrong_magic(self):
        with pytest.raises(ValueError, match="not an index file"):
            load_index(io.StringIO('{"magic": "nope"}'))


class TestWildcardExpand:
    def make_index(self, vocab):
        corpus = Corpus("c", [PublicationRecord("a", " ".join(vocab), 2016)])
        return build_index(corpus)

    def test_prefix_semantics(self):
        index = self.make_index(["legume", "legumes", "lemma"])
        assert wildcard_expand("legum*", index) == {"legume", "legumes"}

    def test_breed_stem(self):
        index = self.make_index(["breed", "breeding", "bread"])
        assert wildcard_expand("breed*", index) == {"breed", "breeding"}

    def test_no_match_is_empty(self):
        index = self.make_index(["alpha", "beta"])
        assert wildcard_expand("z*", index) == set()

    def test_bare_star_rejected(self):
        index = self.make_index(["alpha"])
        with pytest.raises(ValueError, match="unbounded wildcard"):
            wildcard_expand("*", index)

    def test_result_within_vocabulary(self):
        index = self.make_index(["climate", "climatic", "clay", "sun"])
        expanded = wildcard_expand("cl*", index)
        assert expanded <= index.vocabulary
        assert all(tok.startswith("cl") for tok in expanded)

    def test_stem_that_is_itself_a_token(self):
        index = self.make_index(["clim", "climate", "climb", "cli", "clin"])
        assert wildcard_expand("clim*", index) == {"clim", "climate", "climb"}

    def test_stem_after_last_vocabulary_entry(self):
        index = self.make_index(["alpha", "zebra"])
        assert wildcard_expand("zebras*", index) == set()
        assert wildcard_expand("zz*", index) == set()

    def test_non_ascii_stems(self):
        index = self.make_index(["ökologie", "ökonomie", "oko", "öl", "été",
                                 "étude", "数据", "数据库"])
        assert wildcard_expand("ök*", index) == {"ökologie", "ökonomie"}
        assert wildcard_expand("ét*", index) == {"été", "étude"}
        assert wildcard_expand("数据*", index) == {"数据", "数据库"}

    def test_equals_linear_scan(self):
        index = build_index(random_corpus(46, 300))
        vocab = sorted(index.postings)
        stems = {tok[:n] for tok in vocab for n in range(1, len(tok) + 1)}
        stems |= {"clim", "zzz", "ö", vocab[-1] + "a", vocab[0][:-1]}
        for stem in stems:
            assert wildcard_expand(stem + "*", index) == \
                {tok for tok in index.postings if tok.startswith(stem)}, stem


class TestPositions:
    def test_token_missing_from_the_asked_field(self):
        index = build_index(two_doc_corpus())
        # "policy" sits only in a's keywords, "energy" in b's title and abstract
        assert index.positions("policy", "a", "keywords") == (1,)
        assert index.positions("policy", "a", "title") == ()
        assert index.positions("policy", "a", "abstract") == ()
        assert index.positions("energy", "b", "abstract") == (1,)
        assert index.positions("energy", "b", "keywords") == ()
        assert index.positions("energy", "a", "title") == ()
        assert index.positions("absent", "a", "title") == ()

    def test_equals_linear_scan(self):
        corpus = random_corpus(47, 150)
        index = build_index(corpus)
        for tok, entries in index.postings.items():
            expected = {(d, f): p for d, f, p in entries}
            for doc in corpus.records:
                for fld in FIELDS:
                    assert index.positions(tok, doc, fld) == \
                        expected.get((doc, fld), ())

    def test_doc_field_order_survives_round_trip(self):
        # doc ids d0..d299 sort as strings ("d10" < "d2"), not as numbers
        sink = io.StringIO()
        save_index(build_index(random_corpus(45, 300)), sink)
        again = load_index(io.StringIO(sink.getvalue()))
        for entries in again.postings.values():
            keys = [(d, FIELDS.index(f)) for d, f, _ in entries]
            assert keys == sorted(set(keys))


# Index files of the demo corpora as written before build and save stopped
# sorting and copying; the file format must not drift.
DEMO_INDEX_SHA256 = {
    "corpus_x": "7c3dcf71f61bf4a17d1c7e4b80b6c776480a4015740ed78c339843f5aa3c765a",
    "corpus_y": "510dc11019406ac16e87b20e8bd73b6a8d3d266bc2774e704bdbbe6c3b7ad3a6",
}

MIXED_VOCAB = ("climate ökologie été étude 数据 数据库 naïve café co2 "
               "sea-level flood_risk Ωmega ÅNGSTRÖM x").split()


def mixed_corpus(seed: int, n: int) -> Corpus:
    """Random records with non-ASCII tokens, empty fields and unsorted ids."""
    rng = random.Random(seed)

    def text(lo, hi):
        return " ".join(rng.choices(MIXED_VOCAB, k=rng.randint(lo, hi)))

    ids = [f"r{rng.randrange(10**6)}-{i}" for i in range(n)]
    rng.shuffle(ids)
    return Corpus("mixed", [
        PublicationRecord(doc, text(0, 6), 2016, abstract=text(0, 20),
                          keywords=tuple(text(0, 3) for _ in range(rng.randint(0, 3))))
        for doc in ids])


def sort_based_build(corpus: Corpus) -> PositionalIndex:
    """Reference: collect postings in corpus order, then sort them."""
    raw = {}
    for rec in corpus:
        for fld in FIELDS:
            for tok, pos in field_token_stream(rec, fld):
                raw.setdefault(tok, {}).setdefault((rec.internal_id, fld), []).append(pos)
    postings = {}
    for tok in sorted(raw):
        entries = [(doc, fld, tuple(sorted(posns)))
                   for (doc, fld), posns in raw[tok].items()]
        entries.sort(key=lambda e: (e[0], FIELDS.index(e[1])))
        postings[tok] = entries
    return PositionalIndex(postings=postings, doc_count=len(corpus),
                           doc_ids=frozenset(corpus.records))


def list_copy_save(index: PositionalIndex, sink) -> None:
    """Reference: json.dump of the postings copied into lists."""
    doc = {
        "magic": INDEX_MAGIC,
        "version": INDEX_VERSION,
        "doc_count": index.doc_count,
        "doc_ids": sorted(index.doc_ids),
        "postings": {
            tok: [[d, f, list(p)] for d, f, p in entries]
            for tok, entries in index.postings.items()
        },
    }
    json.dump(doc, sink, ensure_ascii=False, sort_keys=True)


class TestIndexFormat:
    @pytest.mark.parametrize("name", sorted(DEMO_INDEX_SHA256))
    def test_demo_index_bytes_are_golden(self, demo_dir, name):
        sink = io.StringIO()
        save_index(build_index(load_corpus_file(demo_dir / f"{name}.jsonl")), sink)
        digest = hashlib.sha256(sink.getvalue().encode("utf-8")).hexdigest()
        assert digest == DEMO_INDEX_SHA256[name]

    @pytest.mark.parametrize("seed", range(5))
    def test_build_equals_sort_based_reference(self, seed):
        corpus = mixed_corpus(seed, 120)
        index, ref = build_index(corpus), sort_based_build(corpus)
        assert index == ref
        assert list(index.postings) == list(ref.postings)

    @pytest.mark.parametrize("seed", range(5))
    def test_save_equals_list_copy_reference(self, seed):
        index = build_index(mixed_corpus(100 + seed, 120))
        sink, ref = io.StringIO(), io.StringIO()
        save_index(index, sink)
        list_copy_save(index, ref)
        assert sink.getvalue() == ref.getvalue()
        assert load_index(io.StringIO(sink.getvalue())) == index

    def test_empty_corpus(self):
        corpus = Corpus("empty", [])
        sink, ref = io.StringIO(), io.StringIO()
        save_index(build_index(corpus), sink)
        list_copy_save(sort_based_build(corpus), ref)
        assert sink.getvalue() == ref.getvalue()

    @pytest.mark.parametrize("text, message", [
        ('{"magic": "nope"}', "not an index file"),
        ('[1, 2]', "not an index file"),
        (json.dumps({"magic": INDEX_MAGIC, "version": INDEX_VERSION + 1}),
         "unsupported index version"),
        ('{"magic": "SDGLAB-INDEX", "version": 1, "postings": {"a": [["d',
         "Unterminated string"),
    ])
    def test_bad_files_raise_value_error(self, text, message):
        with pytest.raises(ValueError, match=message):
            load_index(io.StringIO(text))

    @pytest.mark.parametrize("doc, message", [
        ({"doc_count": 0, "doc_ids": []}, "no 'postings' key"),
        ({"postings": {}, "doc_ids": []}, "no 'doc_count' key"),
        ({"postings": {}, "doc_count": 0}, "no 'doc_ids' key"),
        ({"postings": [], "doc_count": 0, "doc_ids": []}, "'postings' is a list"),
        ({"postings": {}, "doc_count": "0", "doc_ids": []}, "'doc_count' is a str"),
        ({"postings": {"a": 5}, "doc_count": 0, "doc_ids": []}, "malformed"),
        ({"postings": {"a": [["d", "title", 3]]}, "doc_count": 1, "doc_ids": ["d"]},
         "malformed"),
        ({"postings": {}, "doc_count": 0, "doc_ids": [["d"]]}, "malformed"),
    ], ids=["no-postings", "no-doc_count", "no-doc_ids", "postings-list",
            "doc_count-str", "token-entries-int", "positions-int", "doc_id-list"])
    def test_partial_index_object_raises_value_error(self, doc, message):
        text = json.dumps({"magic": INDEX_MAGIC, "version": INDEX_VERSION, **doc})
        with pytest.raises(ValueError, match=message):
            load_index(io.StringIO(text))


class TestGcState:
    @pytest.fixture(params=[True, False], ids=["gc-on", "gc-off"])
    def gc_state(self, request):
        was = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        yield request.param
        (gc.enable if was else gc.disable)()

    def test_build_and_load_restore_gc_state(self, gc_state):
        index = build_index(two_doc_corpus())
        assert gc.isenabled() == gc_state
        sink = io.StringIO()
        save_index(index, sink)
        load_index(io.StringIO(sink.getvalue()))
        assert gc.isenabled() == gc_state

    def test_load_failure_restores_gc_state(self, gc_state):
        with pytest.raises(ValueError, match="not an index file"):
            load_index(io.StringIO('{"magic": "nope"}'))
        assert gc.isenabled() == gc_state
