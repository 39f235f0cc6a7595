"""
Identity twist: truncated polynomial rings
==========================================

With no twist at all, A = K[x]/<f> and the small complex alternates between
the zero map and multiplication by the derivative of f.  The cohomology is
the annihilator of f' in odd degrees and K/(f') in even ones, and a
negative control shows what happens when every closed-form hypothesis fails.
"""

from orecohom import (
    Bimodule,
    ClosedFormError,
    build_small_complex,
    cohomology_dims,
    collapsed_cohomology_table,
    find_witness,
    untwisted_annihilator_table,
    untwisted_model_check,
)
from orecohom.instances import gf3_cubic, qq_pair_swap, untwisted_square

# x^2 over the rationals: f' = 2x annihilates the constants modulo x^2.
alg = untwisted_square(0)
C = build_small_complex(alg, Bimodule.regular(alg), 5)
print("x^2 over Q")
print("model check:", untwisted_model_check(C, 4)["match"])
print("closed dims: ", untwisted_annihilator_table(C, 4)["closed_table"]["dims"])
print("generic dims:", cohomology_dims(C, 4))

# x^2 - 1: the derivative is invertible and positive degrees vanish.
alg = untwisted_square(1)
C = build_small_complex(alg, Bimodule.regular(alg), 5)
print("\nx^2 - 1 over Q")
print("closed dims:", untwisted_annihilator_table(C, 4)["closed_table"]["dims"])

# x^3 over GF(3): the derivative is identically zero, so nothing ever dies.
alg = gf3_cubic()
C = build_small_complex(alg, Bimodule.regular(alg), 5)
print("\nx^3 over GF(3)")
print("closed dims:", untwisted_annihilator_table(C, 4)["closed_table"]["dims"])

# Negative control: Q x Q with the coordinate swap and x^3 = 0.  The middle
# twist power is the identity, so one required witness difference is zero
# and every closed form declines to answer; the generic pipeline still
# produces the table.
alg = qq_pair_swap(3)
C = build_small_complex(alg, Bimodule.regular(alg), 7)
print("\nQ x Q with the swap twist, x^3 = 0")
w = find_witness(alg)
print("witness:", w)
try:
    collapsed_cohomology_table(C, w, 6)
except ClosedFormError as exc:
    print("closed table:", exc)
print("generic dims:", cohomology_dims(C, 6))
