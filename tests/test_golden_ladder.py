"""Golden outputs of the degree ladder: the sha256 of the sorted JSON of
``complex_report`` for the small complex of gh4(2)'s regular bimodule, built
in the library with no CLI, to degree 8 and to degree 32 (the complexes the
ladder-d8 and ladder-d32 workloads of bench/run.py build and report).

A change to either hash must be deliberate: update it here and say in
CHANGES.md why the complex moved."""

import hashlib
import json

import pytest

from orecohom import instances
from orecohom.cohomology import Bimodule, build_small_complex, complex_report

LADDER = {
    8: "f2edd67c508d9d1012054a9e81fb7a7259ea392843027caab11e205d149eaf15",
    32: "f31b83299453fb0d4930ae32debc474b82f93aab05bd582142ef5ce8768ba069",
}


@pytest.mark.parametrize("top", sorted(LADDER))
def test_ladder_report_is_golden(top):
    alg = instances.gh4_instance(2)[0]
    C = build_small_complex(alg, Bimodule.regular(alg), top)
    digest = hashlib.sha256(json.dumps(complex_report(C), sort_keys=True).encode()).hexdigest()
    assert digest == LADDER[top]
