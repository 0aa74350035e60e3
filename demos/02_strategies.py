"""Strategies: loading, term-class tallies, and execution on the demo corpus.

Run: python3 demos/02_strategies.py
"""

from importlib.resources import files

from sdglab import (ingest_corpus, build_index, load_strategy_file,
                    run_strategy, term_class_summary)

data = files("sdglab") / "data"

# The four shipped strategy files differ sharply in size and emphasis.
print("strategy,general,policy,technical,total")
for name in ("elsevier", "strings", "siris", "dimensions"):
    s = term_class_summary(load_strategy_file(data / "strategies" / f"{name}.json"))
    c = s["counts"]
    print(f'{s["strategy"]},{c["general"]},{c["policy"]},{c["technical"]},{s["total"]}')
print()

# Run a small demo strategy end to end.
demo = data / "demo"
with (demo / "corpus_x.jsonl").open(encoding="utf-8") as fh:
    corpus = ingest_corpus(fh, name="corpus_x")
index = build_index(corpus)

strategy = load_strategy_file(demo / "alpha.json")
result = run_strategy(strategy, index, corpus)
print(f"strategy {strategy.name!r} on {corpus.name}: "
      f"{len(result)} records, DOI share {result.doi_record_count / len(result):.3f}")
