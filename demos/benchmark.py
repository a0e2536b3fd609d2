"""Cross-validate every classifier on a freshly generated corpus.

Generates a four-size Blocksworld corpus, then runs the tree inducers and
the nearest-neighbor baseline under both discretization modes, ten-fold
stratified. The majority-class dummy anchors the comparison.
"""

import time

from plancell import cross_validate, evaluate_grid, generate_corpus, report

start = time.perf_counter()
ts = generate_corpus(sizes=[4, 5, 6, 7], per_size=50, seed=11)
print(f"corpus: {len(ts)} instances, "
      f"{len(ts.classes)} plan classes "
      f"({time.perf_counter() - start:.2f}s to generate)")
print()

baseline = cross_validate(ts, "majority", "supervised", seed=0)
print(f"majority-class baseline: {baseline.rate:.2f}%")
print()

results = evaluate_grid(ts, ["j48", "reptree", "knn"],
                        ["supervised", "unsupervised"], seed=0)
print(report(results))
print()

for r in results:
    print(f"{r.method}/{r.mode}: {r.correct} correct, "
          f"{r.incorrect} wrong, {r.errors} unplaceable")
