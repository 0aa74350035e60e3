"""Contrast term maps and the one-shot pipeline.

Run: python3 demos/04_termmap_and_pipeline.py  (writes termmap/ and
pipeline_out/ directories to the current directory)
"""

from importlib.resources import files
from pathlib import Path

from sdglab import (ingest, index_corpus, load_strategy, run_strategy, term_map,
                    PipelineConfig, run_pipeline)

demo = files("sdglab") / "data" / "demo"


def run(strategy_file, corpus_file):
    corpus = ingest(demo / corpus_file)
    return run_strategy(load_strategy(demo / strategy_file), index_corpus(corpus),
                        corpus), corpus


alpha, corpus_x = run("alpha.json", "corpus_x.jsonl")
gamma, corpus_y = run("gamma.json", "corpus_y.jsonl")

# Terms colored by which side uses them more: blue = first set, red = second.
# The map is written as termmap/termmap.json, .graphml and .html.
tm, _ = term_map(alpha, corpus_x, gamma, corpus_y,
                 {"min_occurrences": 5, "layout_seed": 11}, Path("termmap"))
extremes = sorted(tm.terms, key=lambda t: t.score)
print(f"{len(tm.terms)} terms retained")
print(f"most alpha-leaning: {extremes[0].term!r} (score {extremes[0].score:+.2f})")
print(f"most gamma-leaning: {extremes[-1].term!r} (score {extremes[-1].score:+.2f})")
print("wrote termmap/termmap.html")
print()

# The pipeline runs everything above from one config file, deterministically;
# its alpha/gamma term map is the one drawn above.
out = Path("pipeline_out")
bundle = run_pipeline(PipelineConfig.load(demo / "config.json", output_dir=out))
print(f"pipeline: {len(bundle.table3)} strategies, "
      f"{len(bundle.table5)} comparisons -> {out}/")
print((out / "reports" / "table5.csv").read_text().strip())
same = (out / "termmaps" / "alpha__gamma" / "termmap.html").read_bytes() \
    == Path("termmap/termmap.html").read_bytes()
print(f"pipeline's alpha__gamma term map equals the one above: {same}")
