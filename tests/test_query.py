import random
import re
import signal
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import VOCAB, random_corpus
from oracle import evaluate_by_scan, match_doc
from sdglab.corpus import Corpus, PublicationRecord
from sdglab.index import (DOC_SHIFT, FIELD_SHIFT, FIELDS, MAX_POSITION, PositionalIndex,
                          build_index)
from sdglab.query import (MAX_DEPTH, And, AndNot, FieldScope, Or,
                          ParseError, Phrase, Proximity, Term, Wildcard,
                          evaluate, explain, parse_query, print_query)


class TestParse:
    def test_and_with_or_group(self):
        ast = parse_query('"climate change" AND ("policies" OR "education")')
        assert ast == And((Phrase(("climate", "change")),
                           Or((Term("policies"), Term("education")))))

    def test_proximity(self):
        assert parse_query('"climate impact"~3') == \
            Proximity(("climate", "impact"), 3)

    def test_and_not(self):
        assert parse_query('"climate" AND NOT "prehistoric climate"') == \
            AndNot(Term("climate"), Phrase(("prehistoric", "climate")))

    def test_precedence_and_not_binds_tightest(self):
        ast = parse_query('"a" OR "b" AND "c" AND NOT "d"')
        assert ast == Or((Term("a"), And((Term("b"),
                                          AndNot(Term("c"), Term("d"))))))

    def test_case_insensitive_operators(self):
        assert parse_query('"a" and "b"') == parse_query('"a" AND "b"')

    def test_wildcard_forms(self):
        assert parse_query("climat*") == Wildcard("climat")
        assert parse_query('"climat*"') == Wildcard("climat")
        assert parse_query('"legum* breed*"') == Phrase(("legum*", "breed*"))

    def test_unbalanced_quote_errors_with_offset(self):
        with pytest.raises(ParseError) as exc:
            parse_query('"climate AND "b')
        assert "offset" in str(exc.value)

    def test_unbalanced_paren(self):
        with pytest.raises(ParseError):
            parse_query('("a" OR "b"')

    def test_zero_window_rejected(self):
        with pytest.raises(ParseError):
            parse_query('"climate impact"~0')

    def test_empty_query_rejected(self):
        with pytest.raises(ParseError):
            parse_query("")
        with pytest.raises(ParseError):
            parse_query("   ")

    def test_field_scope(self):
        ast = parse_query('[title]("climate")')
        assert ast == FieldScope(frozenset({"title"}), Term("climate"))

    @pytest.mark.parametrize("query, message", [
        ('""', "empty phrase (at offset 0)"),
        ('"a" AND "b"~2', "proximity requires at least 2 tokens (at offset 8)"),
        ('[title]("a"', "unbalanced parenthesis (at offset 0)"),
        ('"x" OR [title]("a" AND "b"', "unbalanced parenthesis (at offset 7)"),
        ('[title] "a"', "field scope requires a parenthesized query (at offset 0)"),
        ('[title, body]("a")', "unknown field 'body' (at offset 8)"),
        ('[title "a"', "expected ']', found 'quoted' (at offset 7)"),
    ], ids=["empty-phrase", "one-token-proximity", "unbalanced-scope",
            "unbalanced-inner-scope", "scope-without-group", "unknown-field",
            "unclosed-field-list"])
    def test_error_message_and_offset(self, query, message):
        """An unbalanced field scope is reported at its "["."""
        with pytest.raises(ParseError, match=re.escape(message) + "$"):
            parse_query(query)

    def test_explain_each_leaf(self):
        assert explain(parse_query('climat* AND "sea level" OR "a b"~2 OR heat')) == (
            "Or\n  And\n    Wildcard climat*\n    Phrase sea level\n"
            "  Proximity ~2 a b\n  Term heat")


# --- canonical printer round-trip -------------------------------------------

tokens_st = st.sampled_from(["climate", "change", "impact", "carbon", "risk"])
pattern_st = st.one_of(tokens_st, tokens_st.map(lambda t: t + "*"))


def ast_strategy():
    leaves = st.one_of(
        tokens_st.map(Term),
        tokens_st.map(lambda t: Wildcard(t)),
        st.tuples(pattern_st, pattern_st, pattern_st).map(Phrase),
        st.builds(Proximity,
                  st.tuples(pattern_st, pattern_st),
                  st.integers(min_value=1, max_value=5)),
    )

    def compound(children):
        return st.one_of(
            st.tuples(children, children).map(And),
            st.tuples(children, children).map(Or),
            st.builds(AndNot, children, children),
            st.builds(FieldScope,
                      st.sets(st.sampled_from(FIELDS), min_size=1).map(frozenset),
                      children),
        )

    return st.recursive(leaves, compound, max_leaves=6)


class TestPrinterRoundTrip:
    @given(ast_strategy())
    @settings(max_examples=200, deadline=None)
    def test_round_trip(self, ast):
        assert parse_query(print_query(ast)) == ast


class TestNestingLimit:
    """A query at MAX_DEPTH parses, evaluates, prints and explains; one level
    deeper fails to parse."""

    # name -> (a query at the limit, the same query one level deeper)
    LIMIT = {
        "parentheses": ("(" * MAX_DEPTH + '"a"' + ")" * MAX_DEPTH,
                        "(" * (MAX_DEPTH + 1) + '"a"' + ")" * (MAX_DEPTH + 1)),
        "and": ('"a" AND (' * (MAX_DEPTH - 1) + '"a" AND "b"' + ")" * (MAX_DEPTH - 1),
                '"a" AND (' * MAX_DEPTH + '"a" AND "b"' + ")" * MAX_DEPTH),
        "and-not chain": ('"a"' + ' AND NOT "z"' * MAX_DEPTH,
                          '"a"' + ' AND NOT "z"' * (MAX_DEPTH + 1)),
        # two AND NOT links inside each of MAX_DEPTH / 2 parentheses
        "nested chains": ("(" * (MAX_DEPTH // 2) + '"a"'
                          + ' AND NOT "z" AND NOT "z")' * (MAX_DEPTH // 2),
                          "(" * (MAX_DEPTH // 2) + '"a" AND NOT "z"'
                          + ' AND NOT "z" AND NOT "z")' * (MAX_DEPTH // 2)),
        "field scopes": ("[title](" * MAX_DEPTH + '"a"' + ")" * MAX_DEPTH,
                         "[title](" * (MAX_DEPTH + 1) + '"a"' + ")" * (MAX_DEPTH + 1)),
        # three operators a level: the printer's deepest recursion per level
        "scoped or-and": ('[title]("z" OR "a" AND ' * (MAX_DEPTH // 3) + '"a" AND NOT "z"'
                          + ")" * (MAX_DEPTH // 3),
                          '[title]("z" OR "a" AND ' * (MAX_DEPTH // 3)
                          + '"a" AND NOT "z" AND NOT "z"' + ")" * (MAX_DEPTH // 3)),
    }

    @pytest.mark.parametrize("name", LIMIT)
    def test_query_at_the_limit(self, name):
        index = build_index(Corpus("c", [PublicationRecord("r", "a b", 2016)]))
        ast = parse_query(self.LIMIT[name][0])
        assert evaluate(ast, index) == {"r"}
        assert parse_query(print_query(ast)) == ast
        assert explain(ast).startswith(("Term", "And", "AndNot", "FieldScope"))

    def test_field_scopes_at_the_limit_need_few_frames(self):
        """MAX_DEPTH nested field scopes parse within 450 frames of the
        caller's depth: four parser frames a level, as for parentheses."""
        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        query = "[title](" * MAX_DEPTH + '"a"' + ")" * MAX_DEPTH
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 450)
        try:
            ast = parse_query(query)
        finally:
            sys.setrecursionlimit(limit)
        assert ast == parse_query(print_query(ast))

    @pytest.mark.parametrize("name", LIMIT)
    def test_one_level_deeper_rejected(self, name):
        with pytest.raises(ParseError, match=f"query nests more than {MAX_DEPTH} "):
            parse_query(self.LIMIT[name][1])

    @pytest.mark.parametrize("query, message", [
        ("(" * (MAX_DEPTH + 1) + '"a" #', f"more than {MAX_DEPTH} parentheses deep "
                                          f"(at offset {MAX_DEPTH})"),
        ("# " + "(" * (MAX_DEPTH + 1) + '"a"', "unexpected character '#' (at offset 0)"),
        ("(" * (MAX_DEPTH + 1) + '"a', "parentheses deep"),
        ('"a' + "(" * (MAX_DEPTH + 1), "unbalanced quote"),
    ], ids=["deep-then-character", "character-then-deep", "deep-then-quote",
            "quote-then-deep"])
    def test_first_error_in_the_text_is_reported(self, query, message):
        """Parentheses are counted as the query is lexed, so of a nesting
        error and a lexing error the one earlier in the text is raised."""
        with pytest.raises(ParseError, match=re.escape(message)):
            parse_query(query)


# --- proximity semantics ----------------------------------------------------

def proximity_matches(tokens, window, title) -> bool:
    """Whether the proximity `tokens`, `window` matches a record with `title`."""
    corpus = Corpus("c", [PublicationRecord("r", title, 2016)])
    return evaluate(Proximity(tuple(tokens), window), build_index(corpus)) == {"r"}


class TestProximityMatch:
    def test_unordered_window_paper_example(self):
        assert proximity_matches(("climate", "related", "hazards"), 3,
                                 "hazards related to climate change")

    def test_changing_climate_example(self):
        assert proximity_matches(("climate", "impact"), 3,
                                 "changing climate and its impact on health")

    def test_reversed_order_within_window(self):
        assert proximity_matches(("climate", "impact"), 3, "impact of climate")

    def test_exact_phrase_also_matches(self):
        assert proximity_matches(("climate", "impact"), 3, "climate change impact")

    def test_outside_window(self):
        # span 6 > 1 + 3
        assert not proximity_matches(("climate", "impact"), 3,
                                     "climate one two three four five impact")

    def test_distinct_positions_required(self):
        # one occurrence cannot serve both tokens
        assert not proximity_matches(("climate", "climate"), 3, "climate policy")
        assert proximity_matches(("climate", "climate"), 3, "climate climate")

    def test_repeated_tokens_match_in_polynomial_time(self):
        # 13 patterns that all match "ww" cannot take 12 distinct positions; a
        # backtracking search tries about 12! assignments before saying so.
        # "ww*" prefixes "ww", so, as for "clim* climate", a window must hold
        # "ww*" once for each query token inside it: 13 times here. A wide
        # window must cost no more than a narrow one, and 1,500 repeats no
        # more than a count of them, with no recursion.
        title = "ww " * 12
        many = "ww " * 1500
        thirteen, twelve = ("ww*",) + ("ww",) * 12, ("ww*",) + ("ww",) * 11
        corpus = Corpus("c", [
            PublicationRecord("far", "climate " + "x " * 50 + "climatic", 2016),
            PublicationRecord("once", "climate policy", 2016),
        ])
        index = build_index(corpus)

        def too_slow(signum, frame):
            raise TimeoutError

        previous = signal.signal(signal.SIGALRM, too_slow)
        signal.setitimer(signal.ITIMER_REAL, 1.0)
        try:
            matched = (proximity_matches(thirteen, 1, title),
                       proximity_matches(thirteen, 10**7, title),
                       proximity_matches(twelve, 10**7, title),
                       evaluate(parse_query('"clim* climate"~10000000'), index),
                       proximity_matches(("ww*",) + ("ww",) * 1499, 1, many),
                       proximity_matches(("ww*",) + ("ww",) * 1500, 1, many))
        except TimeoutError:
            matched = "still running after 1 s"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert matched == (False, False, True, {"far"}, True, False)
        assert proximity_matches(twelve, 1, title)
        assert proximity_matches(("ww", "ww"), 1, "ww ww")

    def test_monotone_in_window(self):
        matched = [n for n in range(1, 8)
                   if proximity_matches(("climate", "impact"), n, "climate a b impact")]
        # once it matches it keeps matching for larger windows
        assert matched == list(range(matched[0], 8))


# --- evaluation -------------------------------------------------------------

def small_corpus():
    return Corpus("c", [
        PublicationRecord("a", "Climate change adaptation", 2016),
        PublicationRecord("b", "Warming trends", 2017,
                          abstract="evidence of prehistoric climate shifts"),
        PublicationRecord("c", "Hazards related to climate change", 2018),
        PublicationRecord("d", "Legumes breeding for drought", 2018,
                          abstract="legume breeding under climate stress"),
    ])


@pytest.fixture(scope="module")
def index():
    return build_index(small_corpus())


class TestEvaluate:

    def test_phrase_contiguous(self, index):
        assert evaluate(Phrase(("climate", "change")), index) == {"a", "c"}

    def test_and_not_excludes(self, index):
        result = evaluate(AndNot(Term("climate"),
                                 Phrase(("prehistoric", "climate"))), index)
        assert "b" not in result
        assert "a" in result

    def test_wildcard_phrase(self, index):
        assert evaluate(parse_query('"legum* breed*"'), index) == {"d"}

    def test_proximity_query(self, index):
        result = evaluate(parse_query('"climate related hazards"~3'), index)
        assert result == {"c"}

    def test_field_scope_restricts(self, index):
        everywhere = evaluate(Term("prehistoric"), index)
        title_only = evaluate(FieldScope(frozenset({"title"}),
                                         Term("prehistoric")), index)
        assert everywhere == {"b"}
        assert title_only == set()

    def test_short_wildcard_stem_rejected(self):
        for make in (lambda: Wildcard("c"), lambda: Wildcard(""),
                     lambda: Phrase(("climate", "c*")), lambda: Proximity(("c*", "change"), 2)):
            with pytest.raises(ValueError, match="shorter than 2 characters"):
                make()
        for text, offset in (("c*", 0), ('"c*"', 0), ('"climate c*"', 0),
                             ('"c* change"~2', 0), ('climate AND x*', 12)):
            with pytest.raises(ParseError, match="shorter than 2 characters") as info:
                parse_query(text)
            assert info.value.offset == offset
        assert Wildcard("cl") == parse_query("cl*")

    def test_term_token_is_never_a_pattern(self, index):
        """A hand-built Term's token is looked up as it is: a "*" in it is no
        wildcard, so it matches no token."""
        for token in ("*", "c*", "clim*"):
            assert evaluate(Term(token), index) == set()
        assert evaluate(Wildcard("clim"), index)

    def test_phrase_implies_proximity_one(self, index):
        phrase_docs = evaluate(Phrase(("climate", "change")), index)
        prox_docs = evaluate(Proximity(("climate", "change"), 1), index)
        assert phrase_docs <= prox_docs


# --- random-query oracle equivalence ----------------------------------------

def random_ast(rng: random.Random, depth: int = 0):
    vocab = VOCAB + ["zebra", "quark"]  # include terms absent from corpora

    def leaf():
        kind = rng.randrange(4)
        if kind == 0:
            return Term(rng.choice(vocab))
        if kind == 1:
            word = rng.choice(vocab)
            return Wildcard(word[:rng.randint(2, max(2, len(word) - 1))])
        if kind == 2:
            n = rng.randint(2, 3)
            return Phrase(tuple(rng.choice(vocab) for _ in range(n)))
        return Proximity(tuple(rng.choice(vocab) for _ in range(2)),
                         rng.randint(1, 4))

    if depth >= 2 or rng.random() < 0.35:
        return leaf()
    kind = rng.randrange(4)
    if kind == 0:
        return And(tuple(random_ast(rng, depth + 1) for _ in range(2)))
    if kind == 1:
        return Or(tuple(random_ast(rng, depth + 1) for _ in range(2)))
    if kind == 2:
        return AndNot(random_ast(rng, depth + 1), random_ast(rng, depth + 1))
    fields = frozenset(rng.sample(FIELDS, rng.randint(1, 3)))
    return FieldScope(fields, random_ast(rng, depth + 1))


class TestOracleEquivalence:
    def test_200_random_queries_over_500_docs(self, corpus_500):
        index = build_index(corpus_500)
        rng = random.Random(2024)
        mismatches = 0
        for _ in range(200):
            ast = random_ast(rng)
            if evaluate(ast, index) != evaluate_by_scan(ast, corpus_500):
                mismatches += 1
        assert mismatches == 0

    def test_positional_nodes_with_wildcard_patterns(self, corpus_500):
        index = build_index(corpus_500)
        rng = random.Random(77)

        def pattern():
            word = rng.choice(VOCAB + ["zebra"])
            if rng.random() < 0.5:
                return word
            return word[:rng.randint(2, len(word))] + "*"

        for _ in range(150):
            tokens = tuple(pattern() for _ in range(rng.randint(2, 3)))
            node = (Phrase(tokens) if rng.random() < 0.5
                    else Proximity(tokens, rng.randint(1, 4)))
            fields = tuple(f for f in FIELDS if rng.random() < 0.7) or FIELDS
            assert evaluate(node, index, fields) == \
                evaluate_by_scan(node, corpus_500, fields), node

    @pytest.mark.parametrize("tokens", [
        ("climate", "climate"),                # a repeated pattern
        ("wind", "wind", "wind"),
        ("clim*", "climate"),                  # a stem prefixing a token
        ("carbon*", "carbon", "emission"),
        ("se*", "sea", "level"),
        ("cl*", "clim*", "climate"),           # stems prefixing each other
        ("wa*", "warming", "wa*"),
        ("sea", "level", "sea", "level"),
        ("climate", "change", "warming", "carbon"),
        ("gas", "greenhouse", "renew*"),
    ])
    def test_proximity_with_repeats_and_overlapping_patterns(self, corpus_500, tokens):
        index = build_index(corpus_500)
        subsets = [FIELDS, ("title",), FIELDS, ("abstract", "keywords"), FIELDS,
                   ("title", "keywords"), ("abstract",)]
        hits = 0
        for window, fields in zip((1, 2, 3, 4, 5, 40, 10**7), subsets):
            node = Proximity(tokens, window)
            found = evaluate(node, index, fields)
            assert found == evaluate_by_scan(node, corpus_500, fields), (node, fields)
            hits += bool(found)
        assert hits

    def test_random_proximity_with_repeats_and_overlaps(self, corpus_500):
        index = build_index(corpus_500)
        rng = random.Random(13)

        def pattern(word):
            return word if rng.random() < 0.6 else word[:rng.randint(2, len(word))] + "*"

        for _ in range(100):
            words = rng.sample(VOCAB, 2)
            tokens = tuple(pattern(rng.choice(words)) for _ in range(rng.randint(2, 4)))
            node = Proximity(tokens, rng.choice([1, 2, 3, 4, 5, 40, 10**7]))
            fields = tuple(f for f in FIELDS if rng.random() < 0.7) or FIELDS
            assert evaluate(node, index, fields) == \
                evaluate_by_scan(node, corpus_500, fields), (node, fields)

        # Words that prefix one another, so that stems nest: "aa*" holds
        # "aab*", which holds "aabc", and a window must count them together.
        nested = ["aa", "aab", "aabc", "aac", "ab", "abb", "ba", "bab"]

        def text(n):
            return " ".join(rng.choice(nested) for _ in range(n))

        corpus = Corpus("n", [PublicationRecord(f"n{i}", text(rng.randint(1, 12)), 2016,
                                                abstract=text(rng.randint(0, 12)),
                                                keywords=(text(1), text(2)))
                              for i in range(60)])
        index = build_index(corpus)
        for _ in range(300):
            tokens = tuple(pattern(rng.choice(nested)) for _ in range(rng.randint(2, 5)))
            node = Proximity(tokens, rng.randint(1, 6))
            fields = tuple(f for f in FIELDS if rng.random() < 0.7) or FIELDS
            assert evaluate(node, index, fields) == \
                evaluate_by_scan(node, corpus, fields), (node, fields)

    def test_boolean_set_laws(self, corpus_500):
        index = build_index(corpus_500)
        rng = random.Random(5)
        for _ in range(40):
            a, b = random_ast(rng, depth=1), random_ast(rng, depth=1)
            ea, eb = evaluate(a, index), evaluate(b, index)
            assert evaluate(Or((a, b)), index) == ea | eb
            assert evaluate(And((a, b)), index) == ea & eb
            assert evaluate(AndNot(a, b), index) == ea - eb

    def test_match_doc_agrees_with_parse(self, corpus_500):
        ast = parse_query('"climate change" AND NOT "sea level"')
        index = build_index(corpus_500)
        assert evaluate(ast, index) == \
            {r.internal_id for r in corpus_500 if match_doc(ast, r)}


# --- packed index: field and doc boundaries, fresh results ------------------

def boundary_corpus():
    # "d10" sorts before "d9", so d10's keywords are followed by d9's title
    # in doc-number order.
    return Corpus("b", [
        PublicationRecord("d9", "levy reform", 2016,
                          abstract="carbon tax plans", keywords=("sea level",)),
        PublicationRecord("d10", "solar energy", 2016,
                          abstract="wind power cost", keywords=("carbon tax",)),
    ])


class TestBoundaries:
    @pytest.mark.parametrize("tokens", [
        ("energy", "wind"),    # last title token, first abstract token of d10
        ("cost", "carbon"),    # last abstract token, first keyword token of d10
        ("tax", "levy"),       # d10's last keyword token, d9's first title token
        ("level", "solar"),    # d9's last token, d10's first (in id-string order)
        ("energ*", "wind*"),
        ("tax", "lev*"),
    ])
    def test_no_match_across_a_boundary(self, tokens):
        corpus = boundary_corpus()
        index = build_index(corpus)
        for node in (Phrase(tokens), Proximity(tokens, 1), Proximity(tokens, 4)):
            assert evaluate(node, index) == evaluate_by_scan(node, corpus) == set(), node

    @pytest.mark.parametrize("tokens, expected", [
        (("levy", "reform"), {"d9"}),    # position 0 of d9's title
        (("wind", "power"), {"d10"}),    # position 0 of d10's abstract
        (("carbon", "tax"), {"d9", "d10"}),  # position 0 of a keyword and of an abstract
        (("sea", "lev*"), {"d9"}),
        (("lev*", "reform"), {"d9"}),
    ])
    def test_pattern_at_position_zero(self, tokens, expected):
        corpus = boundary_corpus()
        index = build_index(corpus)
        for node in (Phrase(tokens), Proximity(tokens, 1)):
            assert evaluate(node, index) == evaluate_by_scan(node, corpus) == expected, node

    def test_shift_does_not_borrow_from_the_next_field(self):
        # "alpha" at the last position a title can hold, "beta" at position 0
        # of the abstract: no phrase; the same pair inside one field matches.
        def index_of(alpha, beta):
            return PositionalIndex(["d"], ["alpha", "beta"],
                                   np.array([1, 1], dtype=np.int64),
                                   np.array([alpha, beta], dtype=np.int64))
        title, abstract = 0 << FIELD_SHIFT, 1 << FIELD_SHIFT
        apart = index_of(title | MAX_POSITION - 1, abstract | 0)
        together = index_of(abstract | MAX_POSITION - 2, abstract | MAX_POSITION - 1)
        for tokens in (("alpha", "beta"), ("alph*", "beta")):
            assert evaluate(Phrase(tokens), apart) == set()
            assert evaluate(Proximity(tokens, 1), apart) == set()
            assert evaluate(Phrase(tokens), together) == {"d"}
            assert evaluate(Proximity(tokens, 1), together) == {"d"}

    def test_window_stops_at_the_end_of_its_key(self):
        # The occurrence that would complete alpha's window lies past the end
        # of alpha's (doc, field): in the next field, or in the next doc,
        # whose title starts 2**22 + 2 codes after alpha's last keyword
        # position. Each key also holds a "beta" further back, so the key is
        # shared and one "beta" is too few for the repeated pattern.
        title, abstract, keywords = (f << FIELD_SHIFT for f in range(3))
        last = MAX_POSITION - 1

        def index_of(alpha, beta):
            return PositionalIndex(["d0", "d1"], ["alpha", "beta"],
                                   np.array([len(alpha), len(beta)], dtype=np.int64),
                                   np.array(alpha + beta, dtype=np.int64))
        next_field = index_of([title | last - 1], [title | 0, abstract | 0])
        next_record = index_of([keywords | last - 1], [keywords | 0, 1 << DOC_SHIFT])
        together = index_of([title | last - 1], [title | 0, title | last])
        for tokens in (("alpha", "beta"), ("alph*", "beta"), ("beta", "alpha", "beta")):
            assert evaluate(Proximity(tokens, 1), next_field) == set(), tokens
        for tokens in (("alpha", "beta", "beta"), ("alph*", "beta", "beta")):
            assert evaluate(Proximity(tokens, 1), together) == set(), tokens
            assert evaluate(Proximity(tokens, 10**7), together) == {"d0"}, tokens
            assert evaluate(Proximity(tokens, 10**7), next_record) == set(), tokens
        for tokens in (("alpha", "beta"), ("alph*", "beta")):
            assert evaluate(Proximity(tokens, 1), together) == {"d0"}, tokens


class TestFreshResults:
    @pytest.mark.parametrize("query", [
        '"climate"', '"clim*"', '"climate change"', '"climate change"~2',
        '"climate" AND "change"', '"climate" OR "warming"',
        '"climate" AND NOT "prehistoric"', '[title]("climate")',
    ])
    def test_mutating_a_result_leaves_the_next_one_alone(self, index, query):
        ast = parse_query(query)
        first = evaluate(ast, index)
        expected = set(first)
        assert expected and all(type(m) is str for m in first)
        first.add("zzz")
        first.discard(next(iter(expected)))
        second = evaluate(ast, index)
        assert second == expected and second is not first

    def test_unknown_fields_are_ignored(self, index):
        for ast in (Term("climate"), Phrase(("climate", "change"))):
            assert evaluate(ast, index, ("title", "body")) == \
                evaluate(ast, index, ("title",))
            assert evaluate(ast, index, ("body",)) == set()
