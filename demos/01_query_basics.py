"""Queries: parsing, explaining, and evaluating against a small corpus.

Run: python3 demos/01_query_basics.py
"""

from sdglab import (PublicationRecord, Corpus, index_corpus,
                    parse_query, print_query, explain, evaluate)

corpus = Corpus("demo", [
    PublicationRecord("p1", "Hazards related to climate change", 2016),
    PublicationRecord("p2", "Climate change impact on coastal cities", 2017),
    PublicationRecord("p3", "Changing climate and its impact on health", 2018),
    PublicationRecord("p4", "Legume breeding under drought stress", 2016,
                      keywords=("legume breeding", "drought")),
    PublicationRecord("p5", "Carbon accounting for industry", 2019,
                      abstract="A review of carbon audit practice."),
])
index = index_corpus(corpus)

examples = [
    '"climate change"',                     # exact phrase
    '"climate impact"~3',                   # proximity: within a 3-token slack
    'legum* AND NOT "drought stress"',      # wildcard + exclusion
    '[keywords]("legume breeding")',        # field-scoped phrase
    '("carbon accounting" OR "carbon audit") AND [title](carbon)',
]

for text in examples:
    ast = parse_query(text)
    print(f"query:     {text}")
    print(f"canonical: {print_query(ast)}")
    print(f"matches:   {sorted(evaluate(ast, index))}")
    print()

print("explain tree for the last query:")
print(explain(parse_query(examples[-1])))
