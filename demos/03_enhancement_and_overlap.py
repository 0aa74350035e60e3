"""Citation-cluster enhancement and pairwise overlap decomposition.

Run: python3 demos/03_enhancement_and_overlap.py  (writes overlap.svg/.json
to the current directory)
"""

from importlib.resources import files
from pathlib import Path

from sdglab import (ingest, index_corpus, load_strategy, run_strategy,
                    cluster_assignment, enhance, compare)

demo = files("sdglab") / "data" / "demo"

corpus_x = ingest(demo / "corpus_x.jsonl", coverage_file=demo / "coverage_x.txt")
corpus_y = ingest(demo / "corpus_y.jsonl", coverage_file=demo / "coverage_y.txt")
index_x, index_y = index_corpus(corpus_x), index_corpus(corpus_y)

# Enhancement: start from keyword matches, pull in whole citation clusters
# once at least 15% of a cluster is already in the seed set. beta.json sets
# the threshold and the Louvain seed, and its year window cuts the result.
beta = load_strategy(demo / "beta.json")
seed = run_strategy(beta, index_x, corpus_x)
assignment = cluster_assignment(corpus_x, beta.enhancement)
enhanced, report = enhance(seed, assignment, beta, corpus_x)
print(f"seed set: {len(seed)} records; enhanced: {len(enhanced)} records")
print(f"clusters qualifying: {len(report.included_clusters)}; "
      f"seed members lost to sub-threshold clusters: {report.seed_members_lost}")
print()

# Overlap: same strategy on the two corpora, decomposed into the five
# segments (coverage surplus / method surplus / overlap, both sides); each
# side's surplus is split by the other database's coverage.
gamma = load_strategy(demo / "gamma.json")
res_x = run_strategy(gamma, index_x, corpus_x)
res_y = run_strategy(gamma, index_y, corpus_y)
row, svg, sidecar = compare(res_x, corpus_x.coverage, res_y, corpus_y.coverage)
for segment in ("cov_a", "meth_a", "overlap", "meth_b", "cov_b"):
    print(f"{segment:8s} {row[segment]:4d}  ({row[segment + '_pct']}%)")

Path("overlap.svg").write_text(svg)
Path("overlap.json").write_text(sidecar)
print("\nwrote overlap.svg and overlap.json")
