#!/usr/bin/env python3
"""Tour of the geometry layer: ball trees and their wavelet bases.

A finite ultrametric space is the same thing as a rooted tree whose
leaves carry positive measures: balls are subtrees, the distance between
two leaves is the diameter of the smallest ball containing both.  This
script builds two such spaces, inspects their geometry, and constructs
orthonormal mean-zero wavelet bases on them both ways the library
supports.
"""

import numpy as np

import ultracascade as uc
from ultracascade import oracles


def show(label, value):
    print(f"  {label:<38} {value}")


print("== a dyadic space from the shorthand form ==")
tree = uc.build_tree({"p": 2, "depth": 3, "A": 1.0, "q": 2.0})
show("vertices / leaves", f"{tree.n_vertices} / {tree.n_leaves}")
show("total measure", tree.total_measure)
show("leaf labels", [tree.label(v) for v in tree.leaves[:4]] + ["..."])

a, b, c = (int(v) for v in tree.leaves[:3])
show("distance(first, second leaf)", oracles.leaf_distance(tree, a, b))
show("distance(first, third leaf)", oracles.leaf_distance(tree, a, c))
print("  the strong triangle inequality makes every triangle isoceles:")
show("  max of the other two sides", max(oracles.leaf_distance(tree, a, c),
                                         oracles.leaf_distance(tree, b, c)))

print()
print("== an uneven space from the explicit form ==")
spec = {
    "children": [
        {"children": [{"measure": 0.3}, {"measure": 0.2}, {"measure": 0.1}]},
        {"measure": 0.9},
        {"children": [{"measure": 0.25}, {"measure": 0.25}]},
    ]
}
uneven = uc.build_tree(spec)
show("leaf measures", [float(m) for m in uneven.measure[uneven.leaves]])
show("ball '0' measure (derived)", float(uneven.measure[uneven.vertex("0")]))
sup = oracles.sup(uneven, uneven.vertex("0.0"), uneven.vertex("1"))
name = repr(uneven.label(sup)) + ("  (the root)" if sup == uneven.root else "")
show("smallest ball holding '0.0' and '1'", name)

print()
print("== wavelets: mean-zero, orthonormal, one block per internal ball ==")
basis = uc.build_basis(uneven)  # gram-schmidt handles any measures
show("wavelet slots (leaves - 1)", basis.n_slots)
show("slot labels", basis.labels)
gram = basis.gram_matrix()
show("max |gram - identity|", f"{np.abs(gram - np.eye(basis.n_slots)).max():.2e}")

psi = basis.as_leaf_field(uneven.vertex("0"), 0)
show("wavelet on ball '0', leaf values", np.round(psi.values.real, 4))
print("  it vanishes outside its ball and is constant on each child.")

print()
print("== the complex scheme needs equal child measures ==")
ternary = uc.build_tree({"p": 3, "depth": 2})
roots = uc.build_basis(ternary, "roots-of-unity")
block = roots.coeffs[ternary.root]
show("root block row 0", np.round(block[0], 3))
gram = roots.gram_matrix()
show("max |gram - identity|", f"{np.abs(gram - np.eye(roots.n_slots)).max():.2e}")

print()
print("== analyze / synthesize are mutually inverse on mean-zero fields ==")
rng = np.random.default_rng(7)
raw = rng.normal(size=uneven.n_leaves) + 1j * rng.normal(size=uneven.n_leaves)
nu = uneven.measure[uneven.leaves]
raw -= (raw @ nu) / uneven.total_measure
f = uc.LeafField(uneven, raw)
coeffs = uc.analyze(basis, f)
back = uc.synthesize(coeffs)
show("coefficients recovered", len(coeffs))
show("max |round trip - field|", f"{np.abs(back.values - f.values).max():.2e}")
