"""Generate a solved Blocksworld corpus and peek at its first rows.

Each instance records which problem family was solved, the measured solve
time, and the plan length; the class is a label shared by every instance
that produced the same action sequence. That makes "which plan will the
solver produce" a plain classification problem.
"""

from collections import Counter

from plancell import generate_runs, corpus_training_set, validate_plan

runs = generate_runs(sizes=[4, 5, 6, 7], per_size=25, seed=11)
print(f"solved {len(runs)} instances")

ok = sum(validate_plan(r.initial, r.plan, r.goal)[0] for r in runs)
print(f"replayed plans: {ok}/{len(runs)} valid")

by_label = Counter(r.label for r in runs)
print(f"distinct plans: {len(by_label)}")
for label, count in sorted(by_label.items(), key=lambda kv: -kv[1])[:5]:
    print(f"  {label}: {count} instances")
print()

ts = corpus_training_set(runs)
print("training set columns:",
      ", ".join(f"{a.name} ({a.kind})" for a in ts.attributes))
print("first rows:")
for (problem, cpu, steps), label in zip(ts.rows[:5], ts.labels):
    print(f"  {problem}  time={cpu:.6f}  steps={steps:.0f}  -> {label}")
