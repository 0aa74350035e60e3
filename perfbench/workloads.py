"""The benchmark's workloads: seeded inputs on disk plus the queries to time.

Why each workload exists:

- paper-queries: the four reference strategy files over two synthetic
  corpora of 2.5k records, plus probe queries of every node type. Query
  evaluation and strategy runs, mostly positional phrase and proximity
  matching, take most of the traced time.
- citation-scale: two synthetic corpora of 2.5k records with Term, Wildcard
  and Boolean strategies that retrieve large shares, and one term map. Index
  build and index I/O, Louvain and the term map take most of the traced
  time; positional evaluation does almost none.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from dataclasses import dataclass
from pathlib import Path

import gen

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "src" / "sdglab" / "data"
FIELDS = ("title", "abstract", "keywords")
# Records per synthetic corpus: small enough that a 60 s run makes several
# rounds on a noisy host.
RECORDS = 2500


@dataclass(frozen=True)
class Spec:
    """How a workload's inputs are built and how many query passes a round makes."""
    abstract_len: tuple[int, int]
    phrase_rate: float
    probes_per_type: int  # per corpus; every workload has over 1,000 queries
    query_passes: int     # query passes per round of a timed run


SPECS = {
    "paper-queries": Spec(abstract_len=(15, 30), phrase_rate=6.0,
                          probes_per_type=17, query_passes=1),
    # Its query passes take well under a second; three per round spread its
    # query samples over more of the run.
    "citation-scale": Spec(abstract_len=(20, 40), phrase_rate=4.0,
                           probes_per_type=58, query_passes=3),
}

PAPER_STRATEGIES = {"pa": ("elsevier", "dimensions"), "pb": ("siris", "strings")}


@dataclass(frozen=True)
class Query:
    corpus: str
    text: str
    fields: tuple[str, ...]
    origin: str  # "seed", "exclusion" or "probe"


@dataclass
class Workload:
    name: str
    seed: int
    spec: Spec
    config_path: Path
    out_dir: Path
    corpora: list[dict]      # config entries with resolved corpus/coverage paths
    strategies: list[str]    # strategy names in config order
    queries: list[Query]
    input_digest: str

    def records(self) -> dict[str, int]:
        return {c["name"]: len(_read_records(c["corpus_file"])) for c in self.corpora}


def _pairs(names):
    return [{"a": a, "b": b} for i, a in enumerate(names) for b in names[i + 1:]]


def _read_records(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _synthetic(name: str, spec: Spec, seed: int, work: Path) -> Path:
    """Write the corpora, coverage files, strategies and config of a synthetic workload."""
    reference = gen.load_strategy_docs(sorted((DATA / "strategies").glob("*.json")))
    vocab = gen.Vocabulary(reference)
    phrases = gen.planted_phrases(reference)
    prefixes = ("pa", "pb") if name == "paper-queries" else ("ca", "cb")
    first, second = gen.generate_corpus_pair(vocab, phrases, seed, RECORDS,
                                             prefixes=prefixes,
                                             abstract_len=spec.abstract_len,
                                             phrase_rate=spec.phrase_rate)
    for prefix, records in zip(prefixes, (first, second)):
        gen.write_corpus(records, work / f"corpus_{prefix}.jsonl")
    gen.write_coverage_pair(first, second, seed, work / f"coverage_{prefixes[0]}.txt",
                            work / f"coverage_{prefixes[1]}.txt")
    if name == "paper-queries":
        strategies = []
        for corpus, names in PAPER_STRATEGIES.items():
            for s in names:
                shutil.copyfile(DATA / "strategies" / f"{s}.json", work / f"{s}.json")
                strategies.append({"file": f"{s}.json", "corpus": corpus})
        termmaps = []
    else:
        strategies = []
        for doc, corpus in zip(gen.broad_strategies(vocab, seed), ("ca", "ca", "cb", "cb")):
            (work / f"{doc['name']}.json").write_text(json.dumps(doc, indent=2) + "\n",
                                                       encoding="utf-8")
            strategies.append({"file": f"{doc['name']}.json", "corpus": corpus})
        termmaps = [{"a": "broad_a", "b": "broad_b",
                     "config": {"min_occurrences": 100, "layout_seed": seed}}]
    names = [Path(s["file"]).stem for s in strategies]
    config = {
        "window": {"start": 2015, "end": 2019},
        "output_dir": "out",
        "corpora": [{"name": p, "corpus_file": f"corpus_{p}.jsonl",
                     "coverage_file": f"coverage_{p}.txt"} for p in prefixes],
        "strategies": strategies,
        "comparisons": _pairs(names),
        "termmaps": termmaps,
    }
    path = work / "config.json"
    path.write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")
    return path


def build(name: str, seed: int, work: Path) -> Workload:
    """Generate the inputs of workload `name` for `seed` under `work`."""
    spec = SPECS[name]
    work.mkdir(parents=True, exist_ok=True)
    config_path = _synthetic(name, spec, seed, work)
    base = config_path.parent
    config = json.loads(config_path.read_text(encoding="utf-8"))
    corpora = [dict(c, corpus_file=base / c["corpus_file"],
                    coverage_file=base / c["coverage_file"]) for c in config["corpora"]]
    digest = hashlib.sha256()
    for c in corpora:
        digest.update(c["corpus_file"].read_bytes())
        digest.update(c["coverage_file"].read_bytes())

    queries: list[Query] = []
    strategies = []
    docs = gen.load_strategy_docs(sorted((DATA / "strategies").glob("*.json")))
    for entry in config["strategies"]:
        raw = (base / entry["file"]).read_bytes()
        digest.update(raw)
        doc = json.loads(raw)
        docs.append(doc)
        strategies.append(Path(entry["file"]).stem)
        fields = tuple(doc.get("fields", FIELDS))
        queries += [Query(entry["corpus"], s["query"], fields, "seed") for s in doc["seeds"]]
        queries += [Query(entry["corpus"], q, fields, "exclusion")
                    for q in doc.get("exclusions", ())]
    topic_words = gen.strategy_words(docs)
    for k, c in enumerate(corpora):
        records = _read_records(c["corpus_file"])
        queries += [Query(c["name"], text, FIELDS, "probe")
                    for text in gen.probe_queries(records, seed * 10 + k, spec.probes_per_type,
                                                  topic_words)]
    for q in queries:
        digest.update(f"{q.corpus}\t{q.text}\t{','.join(q.fields)}\n".encode())
    return Workload(name=name, seed=seed, spec=spec, config_path=config_path,
                    out_dir=work / "out", corpora=corpora, strategies=strategies,
                    queries=queries, input_digest=digest.hexdigest()[:16])
