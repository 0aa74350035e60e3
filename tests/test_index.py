import base64
import gc
import hashlib
import io
import json
import random

import numpy as np
import pytest

from conftest import random_corpus
from sdglab.corpus import Corpus, PublicationRecord, load_corpus_file
from sdglab.index import (_TOKEN_RE, FIELDS, INDEX_MAGIC, INDEX_VERSION, KEYWORD_GAP,
                          MAX_POSITION, PositionalIndex, build_index, field_token_stream,
                          load_index, save_index, tokenize, tokenize_keywords, words)
from sdglab.query import ParseError, evaluate, parse_query


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


# Pieces of mixed text: ASCII words and capitals, letters whose lowercase is
# longer or another letter (İ, ẞ, Ω), CJK, digits, underscores and separators.
WORD_PIECES = ["Climate", "CO2", "x_y", "_", "İstanbul", "İ", "STRAẞE", "ẞ", "Ω",
               "ΩMEGA", "東京", "数据库", "2019", "a1b2", "-", " ", "  ", "/", "é", "Été",
               "naïve", "\t", "\n", "—", "ǅ"]


class TestWords:
    def test_equals_lowering_each_token(self):
        rng = random.Random(17)
        for _ in range(500):
            text = "".join(rng.choices(WORD_PIECES, k=rng.randint(0, 12)))
            assert words(text) == [tok.lower() for tok in _TOKEN_RE.findall(text)]

    def test_every_ascii_character(self):
        for code in range(128):
            text = f"Ab{chr(code)}9{chr(code)}{chr(code)}Z"
            assert words(text) == [tok.lower() for tok in _TOKEN_RE.findall(text)]

    def test_random_ascii_text(self):
        # every code point below 128, \x1c-\x1f among them, which str.split()
        # takes for whitespace and the regex for separators
        rng = random.Random(19)
        for _ in range(2000):
            text = "".join(map(chr, rng.choices(range(128), k=rng.randint(0, 40))))
            assert words(text) == [tok.lower() for tok in _TOKEN_RE.findall(text)]

    def test_dotted_capital_i_stays_one_token(self):
        # "İ".lower() is "i" plus a combining dot, which is not alphanumeric
        assert words("İstanbul") == ["i\u0307stanbul"]
        assert words("ISTANBUL") == ["istanbul"]

    def test_tokenize_is_words_enumerated(self):
        rng = random.Random(18)
        for _ in range(200):
            text = "".join(rng.choices(WORD_PIECES, k=rng.randint(0, 12)))
            assert tokenize(text) == [(tok, i) for i, tok in enumerate(words(text))]


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
        assert {d for d, _, _ in index.postings["energy"]} == {"b"}

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
        postings = index.postings  # decoded anew on each access
        for tok, entries in postings.items():
            for doc, fld, _ in entries:
                assert tok in streams[(doc, fld)]
        for (doc, fld), toks in streams.items():
            for tok in toks:
                assert any(d == doc and f == fld
                           for d, f, _ in postings[tok])

    def test_round_trip_serialization(self):
        index = build_index(two_doc_corpus())
        sink = io.StringIO()
        save_index(index, sink)
        again = load_index(io.StringIO(sink.getvalue()))
        assert again.postings == index.postings
        assert again.doc_count == index.doc_count
        assert again.doc_order == index.doc_order == ("a", "b")
        assert (again == index) is True
        assert (again != index) is False

    def test_load_rejects_wrong_magic(self):
        with pytest.raises(ValueError, match="not an index file"):
            load_index(io.StringIO('{"magic": "nope"}'))


class TestWildcardExpand:
    """A stem's tokens are the `prefix_range` slice of the sorted vocabulary."""

    def make_index(self, vocab):
        """An index with one record per token, the token its id and title."""
        return build_index(Corpus("c", [PublicationRecord(tok, tok, 2016) for tok in vocab]))

    def expand(self, stem, index):
        """The stem's tokens by `prefix_range`; for a stem `evaluate` takes,
        of two or more characters, they must be the ids it finds."""
        lo, hi = index.prefix_range(stem)
        tokens = set(index.sorted_vocabulary[lo:hi])
        if len(stem) >= 2:
            assert evaluate(parse_query(stem + "*"), index) == tokens
        return tokens

    def test_prefix_semantics(self):
        index = self.make_index(["legume", "legumes", "lemma"])
        assert self.expand("legum", index) == {"legume", "legumes"}

    def test_breed_stem(self):
        index = self.make_index(["breed", "breeding", "bread"])
        assert self.expand("breed", index) == {"breed", "breeding"}

    def test_no_match_is_empty(self):
        index = self.make_index(["alpha", "beta"])
        assert self.expand("z", index) == set()
        assert self.expand("zu", index) == set()

    def test_bare_star_rejected(self):
        with pytest.raises(ParseError, match="unexpected character"):
            parse_query("*")
        with pytest.raises(ParseError, match="shorter than 2 characters"):
            parse_query("a*")

    def test_result_within_vocabulary(self):
        index = self.make_index(["climate", "climatic", "clay", "sun"])
        expanded = self.expand("cl", index)
        assert expanded <= set(index.sorted_vocabulary)
        assert all(tok.startswith("cl") for tok in expanded)

    def test_stem_that_is_itself_a_token(self):
        index = self.make_index(["clim", "climate", "climb", "cli", "clin"])
        assert self.expand("clim", index) == {"clim", "climate", "climb"}

    def test_stem_after_last_vocabulary_entry(self):
        index = self.make_index(["alpha", "zebra"])
        assert self.expand("zebras", index) == set()
        assert self.expand("zz", index) == set()

    def test_non_ascii_stems(self):
        index = self.make_index(["ökologie", "ökonomie", "oko", "öl", "été",
                                 "étude", "数据", "数据库"])
        assert self.expand("ök", index) == {"ökologie", "ökonomie"}
        assert self.expand("ét", index) == {"été", "étude"}
        assert self.expand("数据", index) == {"数据", "数据库"}

    def test_equals_linear_scan(self):
        index = build_index(random_corpus(46, 300))
        vocab = sorted(index.postings)
        stems = {tok[:n] for tok in vocab for n in range(1, len(tok) + 1)}
        stems |= {"clim", "zzz", "ö", vocab[-1] + "a", vocab[0][:-1]}
        for stem in stems:
            lo, hi = index.prefix_range(stem)
            assert set(index.sorted_vocabulary[lo:hi]) == \
                {tok for tok in vocab if tok.startswith(stem)}, stem


def field_positions(postings, tok, doc, fld) -> tuple[int, ...]:
    """The positions of `tok` in one field of one doc, per the postings view."""
    return next((p for d, f, p in postings.get(tok, ()) if (d, f) == (doc, fld)), ())


class TestPositions:
    def test_token_missing_from_the_asked_field(self):
        postings = build_index(two_doc_corpus()).postings
        # "policy" sits only in a's keywords, "energy" in b's title and abstract
        assert field_positions(postings, "policy", "a", "keywords") == (1,)
        assert field_positions(postings, "policy", "a", "title") == ()
        assert field_positions(postings, "policy", "a", "abstract") == ()
        assert field_positions(postings, "energy", "b", "abstract") == (1,)
        assert field_positions(postings, "energy", "b", "keywords") == ()
        assert field_positions(postings, "energy", "a", "title") == ()
        assert "absent" not in postings

    @pytest.mark.parametrize("empty", ["—", "", "_ -"])
    def test_keyword_without_tokens_still_advances_the_gap(self, empty):
        keywords = ("climate change", empty, "policy", empty)
        corpus = Corpus("c", [PublicationRecord("a", "t", 2016, keywords=keywords)])
        postings = build_index(corpus).postings
        assert field_positions(postings, "policy", "a", "keywords") == \
            (2 + KEYWORD_GAP + KEYWORD_GAP,)
        assert tokenize_keywords(keywords) == \
            [("climate", 0), ("change", 1), ("policy", 2 + 2 * KEYWORD_GAP)]

    def test_equals_linear_scan(self):
        corpus = random_corpus(47, 150)
        postings = build_index(corpus).postings
        for rec in corpus:
            for fld in FIELDS:
                stream = field_token_stream(rec, fld)
                for tok in {t for t, _ in stream}:
                    assert field_positions(postings, tok, rec.internal_id, fld) == \
                        tuple(p for t, p in stream if t == tok)

    def test_doc_field_order_survives_round_trip(self):
        # doc ids d0..d299 sort as strings ("d10" < "d2"), not as numbers
        sink = io.StringIO()
        save_index(build_index(random_corpus(45, 300)), sink)
        again = load_index(io.StringIO(sink.getvalue()))
        for entries in again.postings.values():
            keys = [(d, FIELDS.index(f)) for d, f, _ in entries]
            assert keys == sorted(set(keys))


# Index files of the demo corpora in the version-2 format; the format must
# not drift.
DEMO_INDEX_SHA256 = {
    "corpus_x": "6ff8f637a464123198389858f391501e862ac68b3d94a25d8e3d9bc41c86eee4",
    "corpus_y": "a7f0bc257966000564f7652a6941c3864e3c648b2df965eb549d5ea93190d2e6",
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


def sort_based_build(corpus: Corpus) -> dict:
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
    return postings


def b64(values) -> str:
    return base64.b64encode(np.array(values, dtype="<i8").tobytes()).decode("ascii")


def list_copy_save(postings: dict, doc_ids, sink) -> None:
    """Reference: the version-2 file from a list copy of a postings dict,
    each code doc number << 24 | field << 22 | position, each array encoded
    whole, and one json.dump."""
    order = sorted(doc_ids)
    number = {doc: i for i, doc in enumerate(order)}
    tokens = list(postings)
    counts = [sum(len(p) for _, _, p in postings[tok]) for tok in tokens]
    codes = [number[d] << 24 | FIELDS.index(f) << 22 | p
             for tok in tokens for d, f, posns in postings[tok] for p in posns]
    doc = {"magic": INDEX_MAGIC, "version": INDEX_VERSION, "doc_count": len(order),
           "doc_ids": order, "tokens": tokens, "counts": b64(counts),
           "postings": b64(codes)}
    json.dump(doc, sink, ensure_ascii=False)


# A valid one-doc, one-token index object without magic and version.
ONE_DOC = {"doc_count": 1, "doc_ids": ["d"], "tokens": ["a"],
           "counts": b64([1]), "postings": b64([0])}


def without(key: str) -> dict:
    return {k: v for k, v in ONE_DOC.items() if k != key}


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
        postings, ref = build_index(corpus).postings, sort_based_build(corpus)
        assert postings == ref
        assert list(postings) == list(ref)

    @pytest.mark.parametrize("seed", range(5))
    def test_save_equals_list_copy_reference(self, seed):
        corpus = mixed_corpus(100 + seed, 120)
        index = build_index(corpus)
        sink, ref = io.StringIO(), io.StringIO()
        save_index(index, sink)
        list_copy_save(sort_based_build(corpus), corpus.records, ref)
        assert sink.getvalue() == ref.getvalue()
        assert (load_index(io.StringIO(sink.getvalue())) == index) is True

    def test_empty_corpus(self):
        corpus = Corpus("empty", [])
        sink, ref = io.StringIO(), io.StringIO()
        save_index(build_index(corpus), sink)
        list_copy_save(sort_based_build(corpus), (), ref)
        assert sink.getvalue() == ref.getvalue()
        assert load_index(io.StringIO(sink.getvalue())) == build_index(corpus)

    def test_base64_pieces_join_into_one_encoding(self, monkeypatch):
        # more codes than one base64 piece holds
        monkeypatch.setattr("sdglab.index._B64_CHUNK", 24)
        index = build_index(mixed_corpus(7, 40))
        sink, ref = io.StringIO(), io.StringIO()
        save_index(index, sink)
        list_copy_save(index.postings, index.doc_order, ref)
        assert sink.getvalue() == ref.getvalue()

    @pytest.mark.parametrize("seed", range(3))
    def test_token_stream_at_and_past_the_place_bound(self, monkeypatch, seed):
        # with 6 place bits a token stream holds at most 64 places; each record
        # below has 8 tokens: 2 in its title, 4 in its abstract, 1 per keyword
        monkeypatch.setattr("sdglab.index._PLACE_BITS", 6)
        rng = random.Random(seed)
        words_ = ["climate", "été", "数据", "co2", "x", "Ωmega"]

        def record(doc):
            return PublicationRecord(doc, " ".join(rng.choices(words_, k=2)), 2016,
                                     abstract=" ".join(rng.choices(words_, k=4)),
                                     keywords=tuple(rng.choices(words_, k=2)))

        records = [record(f"r{rng.randrange(10**6)}-{i}") for i in range(8)]
        corpus = Corpus("full", records)
        assert build_index(corpus).postings == sort_based_build(corpus)
        past = Corpus("past", [*records, PublicationRecord("extra", "one", 2016)])
        with pytest.raises(ValueError, match=r"'past' has 65 tokens.* 2\*\*6"):
            build_index(past)

    def test_one_changed_occurrence_is_unequal(self):
        index = build_index(mixed_corpus(3, 30))
        codes = index.codes.copy()
        codes[len(codes) // 2] += 1
        changed = PositionalIndex(list(index.doc_order), index.sorted_vocabulary,
                                  index.counts, codes)
        assert (changed == index) is False
        assert (changed != index) is True
        same = PositionalIndex(list(index.doc_order), index.sorted_vocabulary,
                               index.counts, index.codes.copy())
        assert (same == index) is True

    @pytest.mark.parametrize("text, message", [
        ('{"magic": "nope"}', "not an index file"),
        ('[1, 2]', "not an index file"),
        (json.dumps({"magic": INDEX_MAGIC, "version": INDEX_VERSION + 1}),
         "unsupported index version"),
        ('{"magic": "SDGLAB-INDEX", "version": 2, "doc_ids": ["d',
         "Unterminated string"),
        ('{"magic": "SDGLAB-INDEX", "version": 1, "doc_count": 0, "doc_ids": [], '
         '"postings": {}}', "unsupported index version: 1"),
    ])
    def test_bad_files_raise_value_error(self, text, message):
        with pytest.raises(ValueError, match=message):
            load_index(io.StringIO(text))

    @pytest.mark.parametrize("doc, message", [
        (without("doc_count"), "no 'doc_count' key"),
        (without("doc_ids"), "no 'doc_ids' key"),
        (without("tokens"), "no 'tokens' key"),
        (without("counts"), "no 'counts' key"),
        (without("postings"), "no 'postings' key"),
        ({**ONE_DOC, "doc_count": "1"}, "'doc_count' is a str"),
        ({**ONE_DOC, "doc_count": True}, "'doc_count' is a bool, not a int"),
        ({**ONE_DOC, "doc_ids": "d"}, "'doc_ids' is a str"),
        ({**ONE_DOC, "tokens": {}}, "'tokens' is a dict"),
        ({**ONE_DOC, "counts": [1]}, "'counts' is a list"),
        ({**ONE_DOC, "postings": []}, "'postings' is a list"),
        ({**ONE_DOC, "doc_ids": [["d"]]}, "'doc_ids' holds a value that is not a string"),
        ({**ONE_DOC, "tokens": [5]}, "'tokens' holds a value that is not a string"),
        ({**ONE_DOC, "doc_count": 2, "doc_ids": ["e", "d"]}, "'doc_ids' is not sorted"),
        ({**ONE_DOC, "tokens": ["a", "a"], "counts": b64([1, 1]), "postings": b64([0, 1])},
         "'tokens' is not sorted"),
        ({**ONE_DOC, "doc_count": 2}, "doc_count 2 is not the number of doc_ids"),
        ({**ONE_DOC, "postings": "AAAA!AAA"}, "'postings' is not base64"),
        ({**ONE_DOC, "counts": "AAAA"}, "'counts' holds 3 bytes, not a multiple of 8"),
        ({**ONE_DOC, "counts": b64([1, 1])}, "2 counts for 1 tokens"),
        ({**ONE_DOC, "counts": b64([2])}, "counts do not sum to the number of codes"),
        ({**ONE_DOC, "counts": b64([0])}, "counts do not sum to the number of codes"),
        ({**ONE_DOC, "counts": b64([2]), "postings": b64([1, 0])},
         "not strictly increasing"),
        ({**ONE_DOC, "counts": b64([2]), "postings": b64([1, 1])},
         "not strictly increasing"),
        ({**ONE_DOC, "postings": b64([1 << 24])}, "doc number outside 0..0"),
        ({**ONE_DOC, "postings": b64([-1])}, "doc number outside 0..0"),
        ({**ONE_DOC, "postings": b64([3 << 22])}, "field 3: a position not below 2"),
        ({**ONE_DOC, "version": float(INDEX_VERSION)},
         f"^unsupported index version: {float(INDEX_VERSION)}$"),
        ({**ONE_DOC, "version": True}, "^unsupported index version: True$"),
    ], ids=["no-doc_count", "no-doc_ids", "no-tokens", "no-counts", "no-postings",
            "doc_count-str", "doc_count-bool", "doc_ids-str", "tokens-dict", "counts-list", "postings-list",
            "doc_id-list", "token-entries-int", "doc_ids-unsorted", "tokens-repeated",
            "doc_count-mismatch", "bad-base64", "payload-length", "counts-per-token",
            "counts-sum", "count-zero", "codes-decreasing", "codes-repeated",
            "doc-number-past-end", "doc-number-negative", "position-overflow",
            "version-float", "version-true"])
    def test_partial_index_object_raises_value_error(self, doc, message):
        text = json.dumps({"magic": INDEX_MAGIC, "version": INDEX_VERSION, **doc})
        with pytest.raises(ValueError, match=message):
            load_index(io.StringIO(text))

    def test_valid_one_doc_object_loads(self):
        text = json.dumps({"magic": INDEX_MAGIC, "version": INDEX_VERSION, **ONE_DOC})
        assert load_index(io.StringIO(text)).postings == {"a": [("d", "title", (0,))]}


def keywords_ending_at(last: int) -> tuple[str, ...]:
    """One-word keywords, then one keyword whose last word sits at `last`."""
    ones = (last - 76) // (1 + KEYWORD_GAP)
    words = last - ones * (1 + KEYWORD_GAP) + 1
    return ("k",) * ones + (" ".join(["w"] * words),)


class TestPositionLimit:
    def test_last_position_below_the_limit_is_indexed(self):
        keywords = keywords_ending_at(MAX_POSITION - 1)
        assert tokenize_keywords(keywords)[-1][1] == MAX_POSITION - 1
        index = build_index(Corpus("c", [PublicationRecord("r", "t", 2016,
                                                           keywords=keywords)]))
        assert index.postings["w"][0][2][-1] == MAX_POSITION - 1

    def test_position_at_the_limit_names_record_and_field(self):
        keywords = keywords_ending_at(MAX_POSITION)
        corpus = Corpus("c", [PublicationRecord("ok", "t", 2016),
                              PublicationRecord("big", "t", 2016, keywords=keywords)])
        with pytest.raises(ValueError, match="record 'big' field 'keywords': position "
                                             f"{MAX_POSITION} is not below"):
            build_index(corpus)


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
