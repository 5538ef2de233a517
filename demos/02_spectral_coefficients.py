#!/usr/bin/env python3
"""The spectral layer: eigenvalues and interaction coefficients, each
backed by a direct quadrature oracle.

Two closed forms carry the dynamics.  First, every wavelet is an
eigenfunction of the integral operator built from a kernel, with an
eigenvalue that is a finite sum over the wavelet's ancestor chain.
Second, the quadratic interaction integral of two nested wavelets
collapses to a single coefficient times the pointwise product of the
wavelets.  Neither claim is taken on faith here: both are checked
against literal sums over leaf cells.
"""

import numpy as np

import ultracascade as uc

rng = np.random.default_rng(20260819)

tree = uc.build_tree({"p": 2, "depth": 2})
basis = uc.build_basis(tree)

print("== eigenvalues vs the direct operator ==")
dissipation = uc.Kernel.constant(tree, 1.0)
for vertex in tree.internal:
    eta = uc.eigenvalue(dissipation, vertex)
    print(f"  ball {tree.label(vertex)!r:6} eigenvalue {eta}")
print("  (unit kernel, unit total mass: every rate is exactly 1)")

psi = basis.as_leaf_field(tree.vertex("0"), 0)
applied = uc.apply_pdo_direct(dissipation, psi)
predicted = uc.eigenvalue(dissipation, tree.vertex("0")) * psi.values
print(f"  operator applied to a wavelet, max |direct - eigenvalue*psi|: "
      f"{np.abs(applied.values - predicted).max():.2e}")

print()
print("== an interaction coefficient, by formula and by triple sum ==")
entries = [(lab, 1.0, 0.0) for lab in tree.labels]
entries[1] = ("0", 2.0, 0.0)  # bump the kernel on one mid ball
interaction = uc.Kernel.from_table(tree, entries)
outer, inner = tree.root, tree.vertex("0")
phi_coeff = uc.interaction_coefficient(interaction, outer, inner)
print(f"  coefficient(root, '0') = {phi_coeff}   (closed form: -1/4)")

phi = basis.as_leaf_field(outer, 0)
psi = basis.as_leaf_field(inner, 0)
direct = uc.interaction_integral_direct(interaction, phi, psi)
pointwise = psi.values * phi.values * phi_coeff
print(f"  triple sum vs psi*phi*coefficient, max deviation: "
      f"{np.abs(direct.values - pointwise).max():.2e}")

print()
print("== constant kernels decouple exactly ==")
flat = uc.Kernel.constant(tree, 3.7 - 0.2j)
table = uc.interaction_table(flat)  # one row per ball, one column per ancestor
nested = np.arange(table.shape[1]) < tree.depth[:, None]
print(f"  nonzero couplings out of {nested.sum()}: "
      f"{np.count_nonzero(table[nested])}")
print("  (exact zeros, not small numbers: the chain form telescopes "
      "differences of kernel values)")

print()
print("== randomized oracle sweeps ==")
worst_eigen = 0.0
worst_inter = 0.0
pairs = 0
for _ in range(5):
    t = uc.random_tree(rng, max_leaves=60)
    b = uc.build_basis(t)
    for _ in range(3):
        k = uc.random_kernel(t, rng)
        worst_eigen = max(worst_eigen, uc.eigen_check(k, b))
        dev, n = uc.interaction_check(k, b)
        worst_inter = max(worst_inter, dev)
        pairs += n
print(f"  eigenvalue check, 5 trees x 3 kernels: worst {worst_eigen:.2e} "
      f"(tolerance {uc.EIGEN_TOL:g})")
print(f"  interaction check over {pairs} wavelet pairs: worst "
      f"{worst_inter:.2e} (tolerance {uc.INTERACTION_TOL:g})")
