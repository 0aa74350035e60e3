"""Bibliographic corpus model: records, DOI normalization, coverage, time windows."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

_DOI_PREFIXES = ("https://doi.org/", "http://doi.org/", "doi:")


def normalize_doi(raw: str | None) -> str | None:
    """Normalize a DOI string: lowercase, strip URL/scheme prefixes and whitespace.

    Returns None for empty input or anything that does not look like a DOI
    (must start with "10." after stripping).
    """
    if raw is None:
        return None
    doi = raw.strip().lower()
    changed = True
    while changed:
        changed = False
        for prefix in _DOI_PREFIXES:
            if doi.startswith(prefix):
                doi = doi[len(prefix):].strip()
                changed = True
    if not doi or not doi.startswith("10."):
        return None
    return doi


@dataclass(frozen=True)
class PublicationRecord:
    internal_id: str
    title: str
    year: int
    doi: str | None = None
    abstract: str = ""
    keywords: tuple[str, ...] = ()
    document_type: str = ""
    references: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.internal_id:
            raise ValueError("internal_id must be non-empty")
        if not (1000 <= self.year <= 9999):
            raise ValueError(f"year must be a 4-digit positive integer, got {self.year}")


@dataclass(frozen=True)
class YearWindow:
    start_year: int
    end_year: int

    def __post_init__(self):
        if self.start_year > self.end_year:
            raise ValueError(f"start_year {self.start_year} > end_year {self.end_year}")

    def contains(self, year: int) -> bool:
        return self.start_year <= year <= self.end_year


class Corpus:
    """Immutable collection of publication records plus a DOI coverage set.

    Coverage defaults to the DOIs of the loaded records but may be a strict
    superset, modelling records the source database indexes without them
    being loaded here.
    """

    def __init__(self, name: str, records: Iterable[PublicationRecord],
                 coverage: Iterable[str] | None = None):
        self.name = name
        self.records: dict[str, PublicationRecord] = {}
        for rec in records:
            if rec.internal_id in self.records:
                raise ValueError(f"duplicate internal_id: {rec.internal_id}")
            self.records[rec.internal_id] = rec
        record_dois = {r.doi for r in self.records.values() if r.doi}
        self.coverage: frozenset[str] = frozenset(record_dois | set(coverage or ()))

    def __len__(self) -> int:
        return len(self.records)

    def __getitem__(self, internal_id: str) -> PublicationRecord:
        return self.records[internal_id]

    def __contains__(self, internal_id: str) -> bool:
        return internal_id in self.records

    def __iter__(self):
        return iter(self.records.values())

    def doi_of(self, internal_id: str) -> str | None:
        return self.records[internal_id].doi


def _parse_record(obj: dict, lineno: int) -> PublicationRecord:
    if type(obj) is not dict:
        raise ValueError(f"line {lineno}: record is not a JSON object")
    for key in ("id", "title", "year"):
        if obj.get(key) is None:
            raise ValueError(f"line {lineno}: missing required key '{key}'")
    # Plain loops over exact types: this runs once per record on the set-up path.
    # An int id or year is taken as such, but not a bool; a year string must be
    # ASCII digits, since int() also reads other scripts' digits and spaces.
    internal_id, year = obj["id"], obj["year"]
    if type(internal_id) is not str and type(internal_id) is not int:
        raise ValueError(f"line {lineno}: 'id' is not a string or an integer: "
                         f"{internal_id!r}")
    if type(year) is not int and not (type(year) is str and year.isascii()
                                      and year.isdigit()):
        raise ValueError(f"line {lineno}: 'year' is not an integer: {year!r}")
    for key in ("doi", "title", "abstract", "doc_type"):
        value = obj.get(key)
        if value is not None and type(value) is not str:
            raise ValueError(f"line {lineno}: {key!r} is not a string: {value!r}")
    # Null or absence, and nothing else, is an empty list.
    keywords, refs = obj.get("keywords"), obj.get("refs")
    for key, value in (("keywords", keywords), ("refs", refs)):
        if value is not None and type(value) is not list:
            raise ValueError(f"line {lineno}: {key!r} is not a list of strings: "
                             f"{value!r}")
        for item in value or ():
            if type(item) is not str:
                raise ValueError(f"line {lineno}: {key!r} is not a list of strings: "
                                 f"{value!r}")
    try:
        return PublicationRecord(
            internal_id=str(internal_id),
            doi=normalize_doi(obj.get("doi")),
            title=obj["title"],
            abstract=obj.get("abstract") or "",
            keywords=tuple(keywords or ()),
            year=int(year),
            document_type=obj.get("doc_type") or "",
            references=tuple(refs or ()),
        )
    except ValueError as exc:
        raise ValueError(f"line {lineno}: {exc}") from exc


def load_corpus_file(path, name: str | None = None,
                     coverage_path=None) -> Corpus:
    """Read a JSON-lines corpus file, one record object per line, named
    `name` or else by the file's stem. A coverage file must list the DOI of
    every record, since it stands for all that the database indexes."""
    coverage = load_coverage_file(coverage_path) if coverage_path else None
    records = []
    seen: set[str] = set()
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"line {lineno}: invalid JSON ({exc.msg})") from exc
            except RecursionError as exc:
                raise ValueError(f"line {lineno}: invalid JSON (nested too deeply)") from exc
            rec = _parse_record(obj, lineno)
            if rec.internal_id in seen:
                raise ValueError(f"line {lineno}: duplicate internal_id: {rec.internal_id}")
            seen.add(rec.internal_id)
            records.append(rec)
    if coverage is not None:
        missing = {r.doi for r in records if r.doi} - coverage
        if missing:
            raise ValueError(f"coverage file {coverage_path} omits {len(missing)} record "
                             f"DOIs, e.g. {min(missing)!r}")
    return Corpus(name=name or Path(path).stem, records=records, coverage=coverage)


def load_coverage_file(path) -> set[str]:
    """Read a coverage file: one DOI per line, normalized on load."""
    dois = set()
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            doi = normalize_doi(line)
            if doi:
                dois.add(doi)
    return dois
