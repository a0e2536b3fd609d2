"""Discretize the bundled solved-runs corpus and grow a decision tree.

Supervised discretization turns the numeric plan length into interval
codes, the tree then picks the most informative attribute at every node.
The grown tree reproduces all eleven training rows.
"""

from plancell import (apply_map, classify_tree, discretize_supervised,
                      entropy, class_distribution, grow, information_gain,
                      sample_runs)
from plancell.tree import INFO_GAIN

runs = sample_runs()
dist = class_distribution(runs)
print(f"{len(runs)} instances over classes {dict(sorted(dist.items()))}")
print(f"class entropy: {entropy(dist):.4f} bits")
print()

dmap = discretize_supervised(runs)
for name, cuts in sorted(dmap.cuts.items()):
    print(f"cuts for {name}: {list(cuts) or 'none (one interval)'}")
cooked = apply_map(dmap, runs)
print()

for attr in cooked.attribute_names:
    print(f"gain({attr}) = {information_gain(cooked, attr):.4f}")
print()

tree = grow(cooked, INFO_GAIN, min_leaf=1, discretization=dmap)
print(f"tree: {tree.node_count} nodes, depth {tree.depth()}, "
      f"root splits on {tree.root.attribute!r}")


def show(node, indent="  "):
    if node.is_leaf:
        return
    for value, child in node.children.items():
        tag = f"class {child.majority}" if child.is_leaf \
            else f"split {child.attribute}"
        print(f"{indent}{node.attribute}={value} -> {child.node_id} ({tag})")
        show(child, indent + "  ")


show(tree.root)
print()

hits = sum(classify_tree(tree, row)[0] == label
           for row, label in zip(cooked.rows, cooked.labels))
print(f"training accuracy: {hits}/{len(cooked)}")
