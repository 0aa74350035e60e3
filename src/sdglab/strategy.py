"""Search strategies: classified seed terms, exclusions, execution, term tallies."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields as dataclass_fields
from pathlib import Path

from .corpus import Corpus, YearWindow
from .index import FIELDS, PositionalIndex
from .query import ParseError, QueryAst, evaluate, excerpt, parse_query
from .rounding import percent

TERM_CLASSES = ("general", "policy", "technical")


def _parse_strategy_query(text: str) -> QueryAst:
    try:
        return parse_query(text)
    except ParseError as exc:
        raise ValueError(f"query {excerpt(text)} does not parse: {exc}") from exc


@dataclass(frozen=True)
class ClassifiedTerm:
    """A seed query and its class; `ast` is `query_text` parsed once, here."""

    query_text: str
    term_class: str = "general"
    ast: QueryAst = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.term_class not in TERM_CLASSES:
            raise ValueError(f"unknown term_class: {self.term_class!r}")
        object.__setattr__(self, "ast", _parse_strategy_query(self.query_text))


def check_resolution(value):
    """`value`, if it is a finite number > 0; else ValueError."""
    if not (type(value) in (int, float) and math.isfinite(value) and value > 0):
        raise ValueError(f"resolution must be a finite number > 0: {value!r}")
    return value


def check_threshold(value):
    """`value`, if it is a number in [0, 1]; else ValueError."""
    if type(value) not in (int, float):
        raise ValueError(f"threshold must be a number: {value!r}")
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"threshold must be in [0, 1]: {value}")
    return value


def check_seed(value) -> None:
    """ValueError unless `value` is an int and not a bool."""
    if type(value) is not int:
        raise ValueError(f"seed must be an int: {value!r}")


@dataclass(frozen=True)
class EnhancementSpec:
    """A cluster-threshold enhancement (see clustering)."""
    threshold: float = 0.15
    assignment_source: str = "computed"  # or a path to an assignment file
    resolution: float = 1.0
    seed: int = 0
    whole_corpus_shares: bool = False

    def __post_init__(self):
        check_threshold(self.threshold)
        if type(self.assignment_source) is not str:
            raise ValueError(f"assignment_source must be a string: "
                             f"{self.assignment_source!r}")
        check_resolution(self.resolution)
        check_seed(self.seed)
        if type(self.whole_corpus_shares) is not bool:
            raise ValueError(f"whole_corpus_shares must be a bool: "
                             f"{self.whole_corpus_shares!r}")


@dataclass(frozen=True)
class SearchStrategy:
    name: str
    seed_terms: tuple[ClassifiedTerm, ...]
    exclusion_terms: tuple[str, ...] = ()
    fields: tuple[str, ...] = FIELDS
    window: YearWindow = field(default_factory=lambda: YearWindow(2015, 2019))
    enhancement: EnhancementSpec | None = None
    # exclusion_terms parsed once, in order
    exclusion_asts: tuple[QueryAst, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if not self.name:
            raise ValueError("strategy name must be non-empty")
        if not self.seed_terms:
            raise ValueError("strategy needs at least one seed term")
        object.__setattr__(self, "exclusion_asts",
                           tuple(_parse_strategy_query(t) for t in self.exclusion_terms))


# The keys of a result.json document and their types; a list holds strings.
_RESULT_KEYS = (("strategy", str), ("corpus", str), ("members", list), ("dois", list),
                ("with_doi", int))


def result_to_doc(result: ResultSet) -> dict:
    """The result.json document of `result`, which ResultSet.from_doc reads."""
    return {
        "strategy": result.strategy_name,
        "corpus": result.corpus_name,
        "members": sorted(result.members),
        "dois": sorted(result.doi_members),
        "with_doi": result.doi_record_count,
    }


class ResultSet:
    """Set of retrieved publications; DOI view derived from corpus records."""

    def __init__(self, strategy_name: str, corpus: Corpus, members):
        self.strategy_name = strategy_name
        self.corpus_name = corpus.name
        self.members: frozenset[str] = frozenset(members)
        unknown = self.members - corpus.records.keys()
        if unknown:
            raise ValueError(f"members not in corpus: {sorted(unknown)[:5]}")
        dois = [corpus.doi_of(m) for m in self.members]
        self.doi_members: frozenset[str] = frozenset(d for d in dois if d)
        self.doi_record_count: int = sum(1 for d in dois if d)

    @classmethod
    def from_doc(cls, doc: dict, corpus: Corpus | None = None) -> "ResultSet":
        """Rebuild a result from its result.json document: against `corpus`
        when given, with members checked and DOIs derived; else with the
        document's own DOI view. ValueError for a document whose keys do not
        hold the types of _RESULT_KEYS."""
        if type(doc) is not dict:
            raise ValueError("not a result document: not a JSON object")
        for key, kind in _RESULT_KEYS:
            value = doc.get(key)
            if type(value) is not kind or \
                    kind is list and not all(type(v) is str for v in value):
                raise ValueError(f"not a result document: {key!r} is not a "
                                 f"{'list of strings' if kind is list else kind.__name__}")
        if corpus is not None:
            return cls(doc["strategy"], corpus, doc["members"])
        result = cls.__new__(cls)
        result.strategy_name, result.corpus_name = doc["strategy"], doc["corpus"]
        result.members = frozenset(doc["members"])
        result.doi_members = frozenset(doc["dois"])
        result.doi_record_count = doc["with_doi"]
        return result

    def __len__(self) -> int:
        return len(self.members)


def load_strategy_file(path) -> SearchStrategy:
    """Load a strategy file (a JSON object, see README for the schema).
    ValueError for a bad one, or one whose `name` is not its file stem.

    A key the file leaves out takes the default of the dataclass field it
    fills. All queries are parsed eagerly so a bad query fails at load time.
    """
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if type(doc) is not dict:
        raise ValueError("strategy file is not a JSON object")
    name, stem = doc.get("name"), Path(path).stem
    if name != stem:
        raise ValueError(f"name {name!r} is not the file stem {stem!r}")
    seeds_raw = doc.get("seeds")
    if type(seeds_raw) is not list:
        raise ValueError(f"seeds must be a list: {seeds_raw!r}")
    seeds = []
    for entry in seeds_raw:
        if type(entry) is not dict or type(entry.get("query")) is not str:
            raise ValueError(f"seed must be an object with a string query: {entry!r}")
        seeds.append(ClassifiedTerm(entry["query"], **(
            {"term_class": entry["class"]} if "class" in entry else {})))
    given = {}  # the SearchStrategy fields the file sets
    if "exclusions" in doc:
        exclusions = doc["exclusions"]
        if type(exclusions) is not list or not all(type(t) is str for t in exclusions):
            raise ValueError(f"exclusions must be a list of strings: {exclusions!r}")
        given["exclusion_terms"] = tuple(exclusions)
    if "fields" in doc:
        names = doc["fields"]
        if type(names) is not list or not names or \
                not all(f in FIELDS for f in names) or len(set(names)) != len(names):
            raise ValueError(f"fields must be a non-empty list of distinct names "
                             f"from {list(FIELDS)}: {names!r}")
        given["fields"] = tuple(names)
    if "window" in doc:
        window = doc["window"]
        if type(window) is not dict or not all(
                type(window.get(k)) is int for k in ("start", "end")):
            raise ValueError(f"window must be an object with int start and end: "
                             f"{window!r}")
        given["window"] = YearWindow(window["start"], window["end"])
    if doc.get("enhancement") is not None:
        e = doc["enhancement"]
        if type(e) is not dict:
            raise ValueError(f"enhancement must be an object: {e!r}")
        if e.get("kind", "cluster_threshold") != "cluster_threshold":
            raise ValueError(f"unknown enhancement kind: {e['kind']!r}")
        given["enhancement"] = EnhancementSpec(
            **{f.name: e[f.name] for f in dataclass_fields(EnhancementSpec)
               if f.name in e})
    return SearchStrategy(name=name, seed_terms=tuple(seeds), **given)


def run_strategy(strategy: SearchStrategy, index: PositionalIndex,
                 corpus: Corpus) -> ResultSet:
    """Execute seeds minus exclusions, then apply the analysis year window.

    Cluster enhancement is a separate step (see the clustering module).
    """
    matched: set[str] = set()
    for term in strategy.seed_terms:
        matched |= evaluate(term.ast, index, strategy.fields)
    for ast in strategy.exclusion_asts:
        matched -= evaluate(ast, index, strategy.fields)
    members = {m for m in matched if strategy.window.contains(corpus[m].year)}
    return ResultSet(strategy.name, corpus, members)


def term_class_summary(strategy: SearchStrategy) -> dict:
    """Tally seed terms by class; shares are whole percents of the total."""
    counts = {cls: 0 for cls in TERM_CLASSES}
    for term in strategy.seed_terms:
        counts[term.term_class] += 1
    total = len(strategy.seed_terms)
    shares = {cls: int(percent(counts[cls], total, 0))
              for cls in TERM_CLASSES}
    return {"strategy": strategy.name, "counts": counts, "total": total,
            "shares": shares}
