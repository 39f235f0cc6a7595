"""
Extensions of a group algebra by one skew generator
===================================================

A = k[G][x, alpha] / <x^n - xi (g1^n - 1)> with a character twist.  Whether
the n-th character power is trivial splits the analysis in two: either the
extension is monogenic over k[G] itself, or only over the quotient by g1^n.
Both ways the quotient model carries the positive-degree cohomology.
"""

from orecohom import (
    Bimodule,
    ProductStore,
    SmallCochain,
    bracket_small_closed,
    bracket_small_generic,
    build_small_complex,
    character_from_values,
    classes_equal,
    cohomology_group,
    cyclic_group,
    find_witness,
    rank_one_hopf_report,
    rank_one_quotient_report,
)
from orecohom.instances import c4_sign, gaussian_rationals

# Case 1: C_8 with chi(g) = i and g1 = g^2, so chi(g1) = -1 is a primitive
# square root but chi^2 is still nontrivial.  The constant term x^2 - (g^4 - 1)
# fails the coefficient rules over k[C_8], so there is no algebra to build;
# the ideal absorbs g^4 - 1 and the extension becomes x^2 = 0 over the
# quotient k[C_4], which the quotient report builds and checks.
F = gaussian_rationals()
G = cyclic_group(8)
chi = character_from_values(G, F, {"g": F.gen})
case1 = rank_one_quotient_report(F, G, chi, "g^2", 2, 1, up_to=5)
print("case:", case1["case"])
print("hypotheses:", [(h["name"], h["holds"]) for h in case1["hypotheses"]])
print("quotient dims:", case1["quotient_table"]["generic_table"]["dims"])

# Case 2: C_4 with the sign character, g1 = g, x^2 = g^2 - 1.  Now chi^2 is
# trivial, the extension itself is monogenic, and its table sits one unit
# above the quotient model in degree zero only.  The report reads the
# extension's own complex, its collapse witness and a product store, whose
# bar oracle the bracket below reads too.
alg, chi2, g1 = c4_sign(1)
C = build_small_complex(alg, Bimodule.regular(alg), 7)
w = find_witness(alg)
store = ProductStore(C)
case2 = rank_one_hopf_report(C, chi2, g1, 1, 5, w, store)
print("\ncase:", case2["case"])
print("extension dims:", case2["dims"])
print("quotient dims: ", case2["quotient_dims"])
print("bracket rows:", case2["bracket_rows"])

# In the lowest odd degree the bracket of two classes is the commutator
# class.  One degree pair higher that rule breaks: the closed recursion
# keeps trace correction terms, and the oracle confirms they survive in
# cohomology.
h1 = cohomology_group(C, 1).reps_ambient[0]
h3 = cohomology_group(C, 3).reps_ambient[0]
a = SmallCochain(alg, 1, type(alg.one)(alg, h1), check=False)
b = SmallCochain(alg, 3, type(alg.one)(alg, h3), check=False)
mixed = bracket_small_generic(a, b, 5, store.oracle)
closed = bracket_small_closed(a, b, w)
cls = cohomology_group(C, 3).class_coords(mixed.value.coords)
print("\n[degree-1, degree-3] bracket class:", cls)
print("closed recursion agrees with the oracle:",
      classes_equal(C, 3, mixed.value.coords, closed.value.coords))
print("commutator rule would predict zero here; the trace terms keep it",
      "nonzero" if any(not c.is_zero() for c in cls) else "zero")
