"""
Quaternion coefficients under a rotation twist
==============================================

The twist rotates the i-j plane by an angle theta; for theta = pi the
half-angle unit is the generator k itself.  Admissible polynomials have
coefficients that are scalar multiples of inverse powers of that unit, and
those scalars form a companion polynomial over the ground field whose
untwisted cohomology matches the quaternion instance degree by degree.
"""

from orecohom import (
    Bimodule,
    ClosedFormError,
    MonogenicAlgebra,
    build_small_complex,
    cohomology_dims,
    quaternion_algebra,
    quaternion_companion,
    quaternion_rotation_report,
    QQ,
)

data = QQ.scalar(-1), QQ.zero, QQ.zero, QQ.one
K, alpha = quaternion_algebra(QQ, *data)


def half_turn_complex(f_coeffs):
    """The complex through degree 5 of the half-turn algebra with this f."""
    alg = MonogenicAlgebra(K, alpha, f_coeffs)
    return build_small_complex(alg, Bimodule.regular(alg), 5)


# x^2 = 1: the companion is y^2 + 1 over the rationals, whose derivative is
# invertible, so only degree zero survives.
C = half_turn_complex([{}, {"1": -1}])
rho1 = quaternion_rotation_report(C, *data, up_to=4)
print("x^2 = 1")
print("companion coefficients:", rho1["companion_coefficients"])
print("closed dims: ", rho1["closed_table"]["dims"])
print("generic dims:", rho1["generic_table"]["dims"])
print("companion model agrees:", rho1["companion_table"]["match"])

# x^2 = 0: the companion is y^2, and the annihilator of its derivative is a
# full line in every degree.
rho0 = quaternion_rotation_report(half_turn_complex([{}, {}]), *data, up_to=4)
print("\nx^2 = 0")
print("companion coefficients:", rho0["companion_coefficients"])
print("closed dims: ", rho0["closed_table"]["dims"])

# The same dimensions fall out of the generic pipeline on the quaternion
# algebra itself, without any companion bookkeeping.
print("\ndirect quaternion dims:", cohomology_dims(C, 4))

# Constant terms outside the rational line of the half-power are rejected:
# i, j, and k all fail the eligibility classification, so those f have no
# algebra to build.
for label in ("i", "j", "k"):
    try:
        quaternion_companion(K, data[2], data[3], [{}, {label: 1}])
        print(f"constant term {label}: accepted")
    except ClosedFormError as exc:
        print(f"constant term {label}: rejected ({exc})")
