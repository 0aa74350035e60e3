#!/usr/bin/env python3
"""Regenerate the bundled desk-scale demo: two synthetic corpora, four small
strategies, coverage files, and a pipeline config with all six comparisons."""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

OUT_DIR = Path(__file__).resolve().parents[1] / "src" / "sdglab" / "data" / "demo"

TOPICS = {
    "climate": ["climate change adaptation", "global warming trend",
                "climate crisis response", "changing climate and its impact"],
    "carbon": ["carbon emission reduction", "carbon capture technology",
               "greenhouse gas emission", "low carbon economy"],
    "energy": ["renewable energy transition", "solar energy systems",
               "wind turbine efficiency", "energy storage methods"],
    "ocean": ["ocean acidification effects", "sea level rise projection",
              "marine ecosystem stress", "coastal flood hazards"],
    "health": ["public health outcomes", "disease burden analysis",
               "hospital treatment quality", "clinical trial design"],
}
FILLER = ("study analysis results method data model approach evidence "
          "assessment review evaluation framework regional national annual "
          "observed measured significant novel empirical").split()
KEYWORD_POOL = ["sustainability", "mitigation", "adaptation", "policy",
                "resilience", "emissions", "modelling", "observation"]


def make_doc(rng, prefix, i, topic, shared_doi=None):
    phrases = TOPICS[topic]
    title = f"{rng.choice(phrases)} {' '.join(rng.sample(FILLER, 3))}"
    abstract_bits = [rng.choice(phrases) for _ in range(2)]
    abstract_bits += [" ".join(rng.sample(FILLER, 6)) for _ in range(3)]
    rng.shuffle(abstract_bits)
    doi = shared_doi
    if doi is None and rng.random() < 0.9:
        doi = f"10.5555/{prefix}.{i:04d}"
    return {
        "id": f"{prefix}{i:04d}",
        "doi": doi,
        "title": title,
        "abstract": ". ".join(abstract_bits),
        "keywords": rng.sample(KEYWORD_POOL, rng.randint(2, 4)),
        "year": rng.choice([2013, 2014] + [2015, 2016, 2017, 2018, 2019] * 6
                           + [2020, 2021]),
        "doc_type": rng.choice(["article", "review", "proceedings"]),
        "refs": [],
    }


def link_references(rng, docs, topics):
    # Dense intra-topic citation links so clustering recovers the topics.
    by_topic = {}
    for doc, topic in zip(docs, topics):
        by_topic.setdefault(topic, []).append(doc)
    for topic, members in by_topic.items():
        ids = [d["id"] for d in members]
        for doc in members:
            others = [x for x in ids if x != doc["id"]]
            doc["refs"] = sorted(rng.sample(others, min(4, len(others))))
    # Sparse cross-topic and dangling references.
    all_ids = [d["id"] for d in docs]
    for doc in docs:
        if rng.random() < 0.15:
            doc["refs"].append(rng.choice(all_ids))
        if rng.random() < 0.1:
            doc["refs"].append("external-" + str(rng.randint(0, 99)))


def make_corpus(rng, prefix, n, shared):
    docs, topics = [], []
    topic_names = list(TOPICS)
    for i in range(n):
        topic = topic_names[i % len(topic_names)]
        shared_doi = shared[i] if i < len(shared) else None
        docs.append(make_doc(rng, prefix, i, topic, shared_doi))
        topics.append(topic)
    link_references(rng, docs, topics)
    return docs


def strategy(name, seeds, exclusions=(), enhancement=None):
    doc = {
        "name": name,
        "fields": ["title", "abstract", "keywords"],
        "window": {"start": 2015, "end": 2019},
        "seeds": seeds,
        "exclusions": list(exclusions),
    }
    if enhancement:
        doc["enhancement"] = enhancement
    return doc


def main() -> None:
    rng = random.Random(20240613)
    shared = [f"10.5555/shared.{i:04d}" for i in range(80)]
    corpus_x = make_corpus(rng, "x", 160, shared)
    corpus_y = make_corpus(rng, "y", 160, shared)

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    for name, docs in (("corpus_x", corpus_x), ("corpus_y", corpus_y)):
        with open(OUT_DIR / f"{name}.jsonl", "w", encoding="utf-8") as fh:
            for doc in docs:
                fh.write(json.dumps(doc, ensure_ascii=False) + "\n")

    # Coverage: own DOIs plus a slice of the other corpus, modelling records
    # indexed by the database but not retrieved.
    x_dois = sorted(d["doi"] for d in corpus_x if d["doi"])
    y_dois = sorted(d["doi"] for d in corpus_y if d["doi"])
    (OUT_DIR / "coverage_x.txt").write_text(
        "\n".join(sorted(set(x_dois) | set(y_dois[::2]))) + "\n")
    (OUT_DIR / "coverage_y.txt").write_text(
        "\n".join(sorted(set(y_dois) | set(x_dois[::3]))) + "\n")

    strategies = [
        strategy("alpha", [
            {"query": '"climate change"', "class": "general"},
            {"query": '"global warming"', "class": "general"},
            {"query": '"climate crisis"', "class": "general"},
        ], exclusions=['"clinical trial"']),
        strategy("beta", [
            {"query": '"carbon emission"~3', "class": "general"},
            {"query": '"greenhouse gas"', "class": "general"},
            {"query": '"low carbon economy"', "class": "policy"},
        ], enhancement={"kind": "cluster_threshold", "threshold": 0.15,
                        "assignment_source": "computed", "seed": 7}),
        strategy("gamma", [
            {"query": '"climate change"', "class": "general"},
            {"query": '"renewable energy"', "class": "general"},
            {"query": '"energy storage"', "class": "technical"},
            {"query": '"wind turbine"', "class": "technical"},
            {"query": 'solar*', "class": "general"},
        ]),
        strategy("delta", [
            {"query": '"ocean acidification"', "class": "technical"},
            {"query": '"sea level"', "class": "general"},
            {"query": '"coastal flood*"', "class": "general"},
            {"query": '"carbon emission"~3', "class": "general"},
            {"query": '"global warming"', "class": "general"},
        ]),
    ]
    for doc in strategies:
        (OUT_DIR / f"{doc['name']}.json").write_text(
            json.dumps(doc, indent=2) + "\n")

    names = [s["name"] for s in strategies]
    pairs = [{"a": a, "b": b} for i, a in enumerate(names)
             for b in names[i + 1:]]
    config = {
        "output_dir": "demo-out",
        "corpora": [
            {"name": "corpus_x", "corpus_file": "corpus_x.jsonl",
             "coverage_file": "coverage_x.txt"},
            {"name": "corpus_y", "corpus_file": "corpus_y.jsonl",
             "coverage_file": "coverage_y.txt"},
        ],
        "strategies": [
            {"file": "alpha.json", "corpus": "corpus_x"},
            {"file": "beta.json", "corpus": "corpus_x"},
            {"file": "gamma.json", "corpus": "corpus_y"},
            {"file": "delta.json", "corpus": "corpus_y"},
        ],
        "comparisons": pairs,
        "termmaps": [
            {"a": "alpha", "b": "gamma",
             "config": {"min_occurrences": 5, "layout_seed": 11}},
            {"a": "beta", "b": "delta",
             "config": {"min_occurrences": 5, "layout_seed": 11}},
        ],
    }
    (OUT_DIR / "config.json").write_text(json.dumps(config, indent=2) + "\n")
    print(f"wrote demo data to {OUT_DIR}")


if __name__ == "__main__":
    main()
