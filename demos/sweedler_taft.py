"""
Cyclic coefficients with a faithful twist
=========================================

The smallest interesting inputs: a cyclic group algebra k[C_n], the twist
that scales the generator by a primitive n-th root of unity, and x^n = 0.
Everything collapses, and the cohomology is one line of k in every degree.
"""

from orecohom import (
    Bimodule,
    ProductStore,
    SmallCochain,
    build_small_complex,
    cohomology_dims,
    cohomology_group,
    collapsed_cohomology_table,
    cup_small,
    find_witness,
    presentation_report,
)
from orecohom.instances import sweedler, taft
from orecohom.linalg import dense

# n = 2 over the rationals: the sign twist on k[C_2].
alg, chi = sweedler()
C = build_small_complex(alg, Bimodule.regular(alg), 7)

# The group generator is a collapse witness: it is central, fixed by the
# square of the twist, and 1 - (-1) = 2 is invertible.
w = find_witness(alg)
print("witness coordinates:", dense(alg.field, w.value, alg.K.dim))

# With a witness the closed table needs no matrix ranks at all.
table = collapsed_cohomology_table(C, w, 6)
print("closed dims: ", table["closed_table"]["dims"])
print("generic dims:", cohomology_dims(C, 6))

# The ring structure is exterior-on-x times polynomial-on-y: the degree-1
# class squares to zero and the degree-2 class shifts degrees bijectively.
x = SmallCochain(alg, 1, alg.monomial(alg.K.unit, 1), check=False)
y = SmallCochain(alg, 2, alg.k_embed(alg.K.unit), check=False)
xx = cohomology_group(C, 2).class_coords(cup_small(x, x).value.coords)
print("x cup x class:", xx)
for m in range(4):
    rep = cohomology_group(C, m).reps_ambient[0]
    shifted = cup_small(y, SmallCochain(alg, m, type(alg.one)(alg, rep), check=False))
    cls = cohomology_group(C, m + 2).class_coords(shifted.value.coords)
    print(f"y cup (degree-{m} generator) lands in degree {m + 2} as class {cls}")

# Same story for n = 3 over GF(7), where 2 is a primitive cube root of 1.
alg3, chi3 = taft(3, 7, 2)
C3 = build_small_complex(alg3, Bimodule.regular(alg3), 7)
print("\nGF(7), order-3 group, x^3 = 0")
print("generic dims:", cohomology_dims(C3, 6))

# The presentation report recognizes the same exterior pattern; its period
# map reads the cup products of a product store of C3.
pres = presentation_report(C3, chi3, 6, ProductStore(C3))
print("generators by degree:", [(g["degree"], g["kind"]) for g in pres["generators"]])
print("exterior pattern holds:", pres["exterior_pattern"])
