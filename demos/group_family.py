"""
A nonabelian group algebra with a character twist
=================================================

Coefficients k[G] for the order-12 group <g, h | g^3 = h^4 = 1, hg = g^-1 h>
over the Gaussian rationals, twisted by the character fixing g and sending
h to i, with x^2 = 0.  Conjugacy-class data drives every closed answer.
"""

from orecohom import (
    Bimodule,
    SmallCochain,
    build_small_complex,
    character_class_basis,
    class_membership_period,
    cohomology_dims,
    cohomology_group,
    cohomology_periodicity,
    cup_small,
    find_witness,
    group_algebra_cohomology_table,
)
from orecohom.instances import gh4_instance
from orecohom.linalg import dense

alg, chi = gh4_instance(3)
K = alg.K
C = build_small_complex(alg, Bimodule.regular(alg), 7)

# The twisted-invariant coefficient spaces are spanned by class sums of the
# conjugacy classes on whose centralizers the character power vanishes.
for r in (0, 1, 2):
    info = character_class_basis(K, chi, r)
    eligible = [cls[0] for cls, e in zip(info["classes"], info["eligible"]) if e]
    print(f"twist {r}: eligible classes {eligible}, matches generic:",
          info["matches_generic"])

# Class-sum data alone reproduces the full dimension table.
w = find_witness(alg)
table = group_algebra_cohomology_table(C, chi, 6, w)
print("closed dims: ", table["closed_table"]["dims"])
print("generic dims:", cohomology_dims(C, 6))

# The twist square has order 2, so dimensions repeat with period 4.
period = cohomology_periodicity(C, chi, 6)
print("period:", period["period"], "dims:", period["dims"])

# Each conjugacy class enters the even blocks at a first block index that
# divides all later appearances.
membership = class_membership_period(K, chi, alg.n)
print("first block per class:",
      {row["class"]: row["m0"] for row in membership["rows"]})

# The cohomology is generated by two degree-0 elements, the x line in
# degree 1, a sign combination in degree 2, and a unit class in degree 4.
print("witness coordinates:", dense(alg.field, w.value, K.dim))
a = SmallCochain(alg, 0, alg.k_embed(K.elem({"g": 1, "g^2": 1})), check=False)
x = SmallCochain(alg, 1, alg.monomial(K.unit, 1), check=False)
b = SmallCochain(alg, 2, alg.k_embed(K.elem({"g": 1, "g^2": -1})), check=False)
c = SmallCochain(alg, 4, alg.k_embed(K.unit), check=False)
for name, cochain in (("a", a), ("x", x), ("b", b), ("c", c)):
    H = cohomology_group(C, cochain.degree)
    print(f"class of {name} in degree {cochain.degree}:",
          H.class_coords(cochain.value.coords))

# Cup with the degree-4 unit class walks one full period up.
for m in range(3):
    H = cohomology_group(C, m)
    up = cohomology_group(C, m + 4)
    images = [
        up.class_coords(
            cup_small(c, SmallCochain(alg, m, type(alg.one)(alg, v), check=False)).value.coords
        )
        for v in H.reps_ambient
    ]
    print(f"degree {m} -> {m + 4}: dim {H.dim} -> {up.dim}, images {images}")
