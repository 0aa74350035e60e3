"""Seeded benchmark inputs: corpora, coverage files, strategies and probe queries.

The vocabulary and the rank of every word are fixed and do not depend on the
workload seed, so two seeds draw records from the same frequency profile and
only the sampled text, DOIs, years and citations differ. That keeps the work
per run steady across seeds.
"""

from __future__ import annotations

import json
import random
import re
from pathlib import Path

import numpy as np

from sdglab.index import tokenize
from sdglab.query import (And, AndNot, FieldScope, Or, Phrase, Proximity, Term,
                          Wildcard, parse_query, print_query)

VOCAB_SEED = 20220106
FILLER_WORDS = 6000
ZIPF_S = 1.0
STOPWORDS = ("the of and in to a for is on with that by as are from this we "
             "their which at an be it was were or not").split()
# Word rank of the i-th most used strategy token. Background text uses them
# rarely; most of their occurrences come from planted phrases, whose rate
# follows the citation community, as topic words do in real records.
STRATEGY_RANK_START, STRATEGY_RANK_STEP = 300, 8
WILDCARD_SUFFIXES = ("e", "es", "ing", "inous")
YEARS = list(range(2010, 2024))
YEAR_WEIGHTS = [1, 1, 2, 3, 3] + [10] * 5 + [3, 2, 2, 1]
DOI_SHARE = 0.92
SHARED_SHARE = 0.25  # of the second corpus, repeating records of the first
REF_IN_COMMUNITY, REF_DANGLING = 0.85, 0.05
COMMUNITY_SIZE = 150
PHRASE_RANK_OFFSET = 5

_WORD_RE = re.compile(r"([^\W_]+)(\*?)", re.UNICODE)
_SYLLABLES = [c + v for c in "bcdfghklmnprstvz" for v in "aeiou"]


def query_words(text: str) -> list[tuple[str, bool]]:
    """Words of a query text with a flag for a trailing wildcard star."""
    return [(w.lower(), bool(star)) for w, star in _WORD_RE.findall(text)
            if w.upper() not in ("AND", "OR", "NOT")]


class Vocabulary:
    """Fixed Zipfian word list that contains every token the strategies use."""

    def __init__(self, strategy_docs: list[dict]):
        usage: dict[str, int] = {}
        stems: set[str] = set()
        for doc in strategy_docs:
            for text in [s["query"] for s in doc["seeds"]] + list(doc.get("exclusions", ())):
                for word, star in query_words(text):
                    if star:
                        stems.add(word)
                    else:
                        usage[word] = usage.get(word, 0) + 1
        for stem in sorted(stems):
            for suffix in WILDCARD_SUFFIXES:
                usage.setdefault(stem + suffix, 1)
        strategy_tokens = sorted((w for w in usage if w not in STOPWORDS),
                                 key=lambda w: (-usage[w], w))
        rng = random.Random(VOCAB_SEED)
        taken = set(strategy_tokens) | set(STOPWORDS)
        filler = []
        while len(filler) < FILLER_WORDS:
            word = "".join(rng.choice(_SYLLABLES) for _ in range(rng.randint(2, 4)))
            if word not in taken and not any(word.startswith(s) for s in stems):
                taken.add(word)
                filler.append(word)
        words = list(STOPWORDS)
        slots = {STRATEGY_RANK_START + STRATEGY_RANK_STEP * i: tok
                 for i, tok in enumerate(strategy_tokens)}
        fill = iter(filler)
        while len(words) < len(STOPWORDS) + len(filler) + len(strategy_tokens):
            words.append(slots.get(len(words)) or next(fill))
        self.words = np.array(words, dtype=object)
        weights = 1.0 / np.arange(1, len(words) + 1) ** ZIPF_S
        self.p = weights / weights.sum()
        self.strategy_tokens = strategy_tokens

    def draw(self, rng: np.random.Generator, n: int) -> list[str]:
        return list(self.words[rng.choice(len(self.words), size=n, p=self.p)])


def load_strategy_docs(paths) -> list[dict]:
    return [json.loads(Path(p).read_text(encoding="utf-8")) for p in paths]


def strategy_words(strategy_docs: list[dict]) -> set[str]:
    """Every word of the seed queries of the strategies."""
    return {w for doc in strategy_docs for s in doc["seeds"] for w, _ in query_words(s["query"])}


def planted_phrases(strategy_docs: list[dict]) -> list[list[str]]:
    """Token lists of the quoted strategy phrases, wildcards instantiated."""
    phrases = []
    seen = set()
    for doc in strategy_docs:
        for seed in doc["seeds"]:
            for body in re.findall(r'"([^"]*)"', seed["query"]):
                words = [w + WILDCARD_SUFFIXES[2] if star else w
                         for w, star in query_words(body)]
                if len(words) >= 2 and tuple(words) not in seen:
                    seen.add(tuple(words))
                    phrases.append(words)
    return phrases


def _insert(tokens: list[str], phrase: list[str], rng: random.Random) -> None:
    at = rng.randint(0, len(tokens))
    tokens[at:at] = phrase


def generate_corpus_pair(vocab: Vocabulary, phrases: list[list[str]], seed: int,
                         n_records: int, prefixes: tuple[str, str],
                         abstract_len: tuple[int, int],
                         phrase_rate: float) -> tuple[list[dict], list[dict]]:
    """Two corpora drawn from the same vocabulary.

    A slice of the second corpus repeats records of the first (same DOI, same
    text, new internal id), as when two databases index one publication.
    Citations come from planted communities; each community has its own
    affinity to the strategy phrases, so citation clusters differ in how
    many seed records they hold. A record of a community with affinity `a`
    carries Poisson(phrase_rate * a) planted phrases.
    """
    rng = random.Random(seed)
    nrng = np.random.default_rng(seed)
    # Phrase popularity falls off with rank over a fixed order; the offset
    # keeps the most popular phrase below a few percent of all plantings.
    order = list(range(len(phrases)))
    random.Random(VOCAB_SEED).shuffle(order)
    phrase_w = [1.0 / (r + PHRASE_RANK_OFFSET) for r in range(len(phrases))]
    ranked = [phrases[i] for i in order]
    # Communities have equal sizes and the same affinities for every seed,
    # only assigned differently, so the amount of planted text is steady.
    n_comm = max(2, n_records // COMMUNITY_SIZE)
    affinities = np.random.default_rng(VOCAB_SEED).beta(0.6, 0.6, size=n_comm)

    corpora = []
    for prefix in prefixes:
        comm_of = nrng.permutation(np.arange(n_records) % n_comm)
        affinity = nrng.permutation(affinities)
        title_lens = nrng.integers(6, 13, size=n_records)
        abs_lens = nrng.integers(abstract_len[0], abstract_len[1] + 1, size=n_records)
        kw_counts = nrng.integers(2, 6, size=n_records)
        kw_lens = nrng.integers(1, 4, size=int(kw_counts.sum()))
        pool = vocab.draw(nrng, int(title_lens.sum() + abs_lens.sum() + kw_lens.sum()))
        cursor = kw_cursor = 0
        records = []
        members: dict[int, list[str]] = {}
        for i in range(n_records):
            rid = f"{prefix}{i:06d}"
            title = pool[cursor:cursor + title_lens[i]]
            cursor += title_lens[i]
            abstract = pool[cursor:cursor + abs_lens[i]]
            cursor += abs_lens[i]
            keywords = []
            for _ in range(kw_counts[i]):
                n = kw_lens[kw_cursor]
                kw_cursor += 1
                keywords.append(" ".join(pool[cursor:cursor + n]))
                cursor += n
            c = int(comm_of[i])
            for _ in range(int(nrng.poisson(phrase_rate * affinity[c]))):
                phrase = list(rng.choices(ranked, weights=phrase_w)[0])
                roll = rng.random()
                if roll < 0.2:  # split by one word: a proximity-only match
                    phrase.insert(rng.randint(1, len(phrase) - 1), pool[rng.randrange(len(pool))])
                elif roll < 0.3:
                    phrase.reverse()
                where = rng.random()
                if where < 0.2:
                    _insert(title, phrase, rng)
                elif where < 0.3:
                    keywords.append(" ".join(phrase))
                else:
                    _insert(abstract, phrase, rng)
            records.append({
                "id": rid,
                "doi": (f"10.{5000 + seed % 1000}/{prefix}.{i}"
                        if rng.random() < DOI_SHARE else None),
                "title": " ".join(title).capitalize(),
                "abstract": ". ".join(" ".join(abstract[j:j + 15])
                                      for j in range(0, len(abstract), 15)),
                "keywords": keywords,
                "year": rng.choices(YEARS, weights=YEAR_WEIGHTS)[0],
                "doc_type": rng.choice(("article", "article", "review", "proceedings")),
                "refs": [],
            })
            members.setdefault(c, []).append(rid)
        for rec, c in zip(records, comm_of):
            own = members[int(c)]
            refs = set()
            for _ in range(rng.randint(2, 8)):
                roll = rng.random()
                if roll < REF_DANGLING:
                    refs.add(f"ext-{rng.randrange(10 * n_records)}")
                elif roll < REF_DANGLING + REF_IN_COMMUNITY:
                    refs.add(rng.choice(own))
                else:
                    refs.add(records[rng.randrange(n_records)]["id"])
            refs.discard(rec["id"])
            rec["refs"] = sorted(refs)
        corpora.append(records)

    first, second = corpora
    for j in rng.sample(range(n_records), int(SHARED_SHARE * n_records)):
        src, dst = first[j], second[j]
        for key in ("doi", "title", "abstract", "keywords", "year"):
            dst[key] = src[key]
    return first, second


def write_corpus(records: list[dict], path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, ensure_ascii=False) + "\n")


def write_coverage_pair(first: list[dict], second: list[dict], seed: int,
                        path_first: Path, path_second: Path) -> None:
    """Each coverage file holds its corpus's DOIs plus part of the other's."""
    rng = random.Random(seed + 1)
    dois_first = sorted({r["doi"] for r in first if r["doi"]})
    dois_second = sorted({r["doi"] for r in second if r["doi"]})
    cov_first = set(dois_first) | {d for d in dois_second if rng.random() < 0.5}
    cov_second = set(dois_second) | {d for d in dois_first if rng.random() < 0.35}
    path_first.write_text("\n".join(sorted(cov_first)) + "\n", encoding="utf-8")
    path_second.write_text("\n".join(sorted(cov_second)) + "\n", encoding="utf-8")


def strategy_doc(name: str, seeds: list[str], exclusions: list[str], enhancement: dict) -> dict:
    classes = ("general", "policy", "technical")
    return {
        "name": name,
        "fields": ["title", "abstract", "keywords"],
        "window": {"start": 2015, "end": 2019},
        "seeds": [{"query": q, "class": classes[i % 3]} for i, q in enumerate(seeds)],
        "exclusions": exclusions,
        "enhancement": enhancement,
    }


def broad_strategies(vocab: Vocabulary, seed: int) -> list[dict]:
    """Four strategies of Term, Wildcard and Boolean seeds, two per corpus.

    Their tokens sit mostly in planted phrases, so retrieval follows the
    phrase affinity of each citation community. Each strategy enhances by
    computed clusters with the same resolution and seed as its corpus
    sibling, so the pipeline clusters each citation graph twice.
    """
    rng = random.Random(seed + 2)
    pool = vocab.strategy_tokens[20:100]
    out = []
    for k, (name, n_terms, threshold) in enumerate((
            ("broad_a", 16, 0.3), ("narrow_a", 8, 0.5),
            ("broad_b", 16, 0.3), ("narrow_b", 8, 0.5))):
        picked = rng.sample(pool, n_terms + 12)
        seeds = [f'"{t}"' for t in picked[:n_terms]]
        seeds += [f"{t[:5]}*" for t in picked[n_terms:n_terms + 4]
                  if len(t) >= 6 and t.isalpha()]
        a, b, c, d, e, f, g, h = picked[n_terms + 4:n_terms + 12]
        seeds += [f"{a} AND ({b} OR {c})", f"({d} OR {e}) AND NOT {f}",
                  f"{g} AND {h}"]
        exclusions = [rng.choice(vocab.strategy_tokens[100:])]
        out.append(strategy_doc(name, seeds, exclusions, enhancement={
            "kind": "cluster_threshold", "threshold": threshold,
            "assignment_source": "computed", "resolution": 1.0, "seed": k // 2}))
    return out


# ---------------------------------------------------------------------------
# Probe queries: every root node type, drawn from the corpus text.

NODE_TYPES = ("term", "phrase", "wildcard", "proximity", "and", "or",
              "andnot", "fieldscope")
_NODE_CLASS = {Term: "term", Phrase: "phrase", Wildcard: "wildcard",
               Proximity: "proximity", And: "and", Or: "or", AndNot: "andnot",
               FieldScope: "fieldscope"}


def node_type(ast) -> str:
    return _NODE_CLASS[type(ast)]


def _probe_words(records: list[dict]) -> list[list[str]]:
    banned = set(STOPWORDS)
    streams = []
    for rec in records:
        toks = [t for t, _ in tokenize(rec["title"] + " " + rec["abstract"])]
        streams.append([t for t in toks if t not in banned])
    return [s for s in streams if len(s) >= 4]


def probe_queries(records: list[dict], seed: int, per_type: int,
                  topic_words: set[str]) -> list[str]:
    """Seeded probe queries, `per_type` for each root node type.

    Words come from windows of real records, so phrase and proximity probes
    have candidates. No window holds one of `topic_words`: those words
    cluster in the same records, so a few probes on them would cost more
    than all the others and decide the p98 by chance. The shape of the k-th
    probe of a type (phrase length, operand kinds, a wildcard ending, a
    repeated token, the fields of a scope) is fixed by k, so every seed
    gives the same mix of query shapes and only the words change. Every
    probe survives a parse/print round trip.
    """
    rng = random.Random(seed + 3)
    streams = _probe_words(records)
    long_words = sorted({w for s in streams for w in s if len(w) >= 6 and w.isalpha()})

    def window(n):
        while True:
            s = rng.choice(streams)
            i = rng.randrange(len(s) - n + 1)
            if not topic_words.intersection(s[i:i + n]):
                return s[i:i + n]

    def word(k=0):
        return rng.choice(rng.choice(streams))

    def wildcard(k=0):
        return rng.choice(long_words)[:4] + "*"

    def phrase(k):
        toks = window(2 + k % 2)
        if k % 8 == 7:  # a wildcard phrase
            toks[-1] = rng.choice(long_words)[:4] + "*"
        return '"' + " ".join(toks) + '"'

    def proximity(k):
        toks = window(2 + k % 2)
        if k % 3 == 2:  # a repeated token
            toks.append(toks[0])
        return '"' + " ".join(toks) + f'"~{1 + k % 5}'

    def operand(k):
        return (word, phrase, wildcard)[k % 3](k // 3)

    scopes = ("title", "abstract", "title,abstract", "keywords,title")
    makers = {
        "term": word,
        "phrase": phrase,
        "wildcard": wildcard,
        "proximity": proximity,
        "and": lambda k: " AND ".join(operand(k + j) for j in range(2 + k % 2)),
        "or": lambda k: " OR ".join(operand(k + j) for j in range(2 + k % 2)),
        "andnot": lambda k: f"{operand(k)} AND NOT {operand(k + 1)}",
        "fieldscope": lambda k: "[{}]({})".format(
            scopes[k % 4], (word, phrase, proximity)[k % 3](k // 3)),
    }
    out = []
    for kind in NODE_TYPES:
        for k in range(per_type):
            while True:
                text = makers[kind](k)
                ast = parse_query(text)
                if node_type(ast) == kind:
                    break
            if parse_query(print_query(ast)) != ast:
                raise ValueError(f"probe does not round-trip: {text!r}")
            out.append(text)
    return out
