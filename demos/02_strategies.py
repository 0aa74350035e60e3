"""Strategies: loading, term-class tallies, and execution on the demo corpus.

Run: python3 demos/02_strategies.py
"""

from collections import Counter
from importlib.resources import files

from sdglab import ingest, index_corpus, load_strategy, run_strategy

data = files("sdglab") / "data"

# The four shipped strategy files differ sharply in size and emphasis.
print("strategy,general,policy,technical,total")
for name in ("elsevier", "strings", "siris", "dimensions"):
    strategy = load_strategy(data / "strategies" / f"{name}.json")
    c = Counter(term.term_class for term in strategy.seed_terms)
    print(f'{strategy.name},{c["general"]},{c["policy"]},{c["technical"]},'
          f'{len(strategy.seed_terms)}')
print()

# Run a small demo strategy end to end.
demo = data / "demo"
corpus = ingest(demo / "corpus_x.jsonl")
index = index_corpus(corpus)

strategy = load_strategy(demo / "alpha.json")
result = run_strategy(strategy, index, corpus)
print(f"strategy {strategy.name!r} on {corpus.name}: "
      f"{len(result)} records, DOI share {result.doi_record_count / len(result):.3f}")
