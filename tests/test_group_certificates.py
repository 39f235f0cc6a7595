"""G's certificate, and what k[G] and its characters inherit from it, against
the scans they replaced (kept in conftest.py).

`GroupData` certifies associativity by Light's test on its generators, and
`validate_character` certifies multiplicativity on the same generators; each
runs its full scan only when the certificate fails, to name the first
failure.  On every group the tests build (cyclic of order 1-8, gh4 for
u = 1-8, the table group of the CLI tests and quotient groups), on random
relabelings of them and on random swaps of two table entries, both must give
the scans' exact result or failure string.  A group algebra takes its
generators and its certificate from G, while a structure-constant K and the
quaternions still run the walk and the certificate of `AlgebraK`.  The guard
at the end counts the full scans and the generic walk and certificate on
every valid group demo spec under every verb and on gh4(64): none runs."""

import collections
import functools
import itertools
import json
import random

import pytest
from conftest import SPECS, mutant, quads_of, scan_group_data, scan_validate_character, with_table

from orecohom import cli, kalgebra
from orecohom.fields import QQ, prime_field
from orecohom.kalgebra import (
    AlgebraError,
    AlgebraK,
    GroupData,
    character_from_values,
    cyclic_group,
    endo_from_character,
    group_algebra,
    group_from_presentation_gh4,
    group_from_table,
    quaternion_algebra,
)


def quotient(G: GroupData, label: str) -> GroupData:
    """G over the subgroup generated by the element ``label``."""
    return G.quotient_group(G.subgroup_generated([G.labels.index(label)]))[0]


GROUPS = {
    **{f"C{n}": functools.partial(cyclic_group, n) for n in range(1, 9)},
    **{f"gh4({u})": functools.partial(group_from_presentation_gh4, u) for u in range(1, 9)},
    "C2 table": lambda: group_from_table(["1", "g"], [[0, 1], [1, 0]]),
    "C8/<g^4>": lambda: quotient(cyclic_group(8), "g^4"),
    "gh4(2)/<h^2>": lambda: quotient(group_from_presentation_gh4(2), "h^2"),
    "gh4(4)/<g^2>": lambda: quotient(group_from_presentation_gh4(4), "g^2"),
    "gh4(6)/<g^3>": lambda: quotient(group_from_presentation_gh4(6), "g^3"),
    "gh4(8)/<g^4*h^2>": lambda: quotient(group_from_presentation_gh4(8), "g^4*h^2"),
}
SWAPS = 8
GF5 = prime_field(5)


def outcome(labels, table):
    """What `GroupData` gives: (identity, inverses), or its error message."""
    try:
        G = GroupData(labels, table)
    except AlgebraError as exc:
        return str(exc)
    return G.identity, G.inverses


def relabeled(G: GroupData, rng: random.Random) -> tuple[list, list]:
    """G's labels and table with the elements renumbered at random."""
    pi = list(range(G.order))
    rng.shuffle(pi)
    labels, table = [""] * G.order, [[0] * G.order for _ in range(G.order)]
    for a in range(G.order):
        labels[pi[a]] = G.labels[a]
        for b in range(G.order):
            table[pi[a]][pi[b]] = pi[G.mul(a, b)]
    return labels, table


def swapped(G: GroupData, rng: random.Random) -> list:
    """G's table with two entries of different values swapped."""
    cells = list(itertools.product(range(G.order), repeat=2))
    while True:
        (a, b), (c, d) = rng.sample(cells, 2)
        if G.mul(a, b) != G.mul(c, d):
            table = [list(row) for row in G.table]
            table[a][b], table[c][d] = table[c][d], table[a][b]
            return table


def relatives(name: str) -> list[GroupData]:
    """The group and two random relabelings of it."""
    G, rng = GROUPS[name](), random.Random(name)
    return [G] + [GroupData(*relabeled(G, rng)) for _ in range(2)]


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_group_certificate_matches_the_scan(name):
    G, rng = GROUPS[name](), random.Random(name)
    assert outcome(G.labels, G.table) == scan_group_data(G.labels, G.table)
    for _ in range(3):
        labels, table = relabeled(G, rng)
        want = scan_group_data(labels, table)
        assert not isinstance(want, str) and outcome(labels, table) == want
    if G.order < 3:
        return  # a swap in a table of order 1 or 2 changes no value or breaks the identity
    for _ in range(SWAPS):
        table = swapped(G, rng)
        want = scan_group_data(G.labels, table)
        assert isinstance(want, str)
        assert outcome(G.labels, table) == want


def non_associative_swap(G: GroupData, rng: random.Random) -> list:
    """A swap of two entries of G's table that keeps the identity law, so
    that the scan names a failing triple."""
    while True:
        table = swapped(G, rng)
        if str(scan_group_data(G.labels, table)).startswith("group table not associative at"):
            return table


@pytest.mark.parametrize("name", ["C5", "gh4(3)", "gh4(8)/<g^4*h^2>"])
def test_non_associative_swaps_name_the_scans_triple(name):
    G, rng = GROUPS[name](), random.Random(name)
    for _ in range(SWAPS):
        table = non_associative_swap(G, rng)
        assert outcome(G.labels, table) == scan_group_data(G.labels, table)


def characters(G: GroupData) -> list[list]:
    """Every character of G with values +-1 over Q or fourth roots of unity
    over GF(5), each found from its values on ``G.generators``."""
    out = []
    for F, roots in ((QQ, [1, -1]), (GF5, [1, 2, 3, 4])):
        for values in itertools.product(roots, repeat=len(G.generators)):
            try:
                out.append(character_from_values(G, F, {G.labels[g]: v for g, v in zip(G.generators, values)}))
            except AlgebraError:
                continue
    return out


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_character_certificate_matches_the_scan(name):
    """Valid characters pass both routes; each one broken at random elements
    and at the identity, scaled by 2 or set to 0, fails both alike."""
    rng = random.Random(name)
    for G in relatives(name):
        chis = characters(G)
        assert chis
        for chi in chis:
            rep = kalgebra.validate_character(G, chi)
            assert rep == scan_validate_character(G, chi) and rep.ok
            for k in {G.identity, *rng.sample(range(G.order), min(G.order, 2))}:
                for c in (2, 0):
                    bad = list(chi)
                    bad[k] = chi[k] * c
                    rep = kalgebra.validate_character(G, bad)
                    assert rep == scan_validate_character(G, bad) and not rep.ok
            # scaled by 2 off the subgroup of the first generator: still
            # multiplicative along that generator, and broken when there is another
            first = set(G.subgroup_generated(list(G.generators[:1])))
            bad = [c if a in first else c * 2 for a, c in enumerate(chi)]
            rep = kalgebra.validate_character(G, bad)
            assert rep == scan_validate_character(G, bad) and rep.ok == (len(G.generators) < 2)


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_group_algebra_keeps_the_walks_generators(name):
    """k[G] takes G's generators: the walk of `AlgebraK` over the same table
    read as structure constants keeps the same indices."""
    for G in relatives(name):
        K = group_algebra(G, QQ)
        assert K.generators == G.generators == AlgebraK._spanning_generators(with_table(K, quads_of(K)))


# -- the full scans and the generic walk, counted ----------------------------

COUNTED = ["_group_table_scan", "_character_pair_scan", "_basis_walk", "_triple_certificate"]


def counting(monkeypatch) -> collections.Counter:
    """Count the calls of each helper of COUNTED from here on."""
    calls = collections.Counter()
    for name in COUNTED:
        def counted(*args, inner=getattr(kalgebra, name), key=name):
            calls[key] += 1
            return inner(*args)

        monkeypatch.setattr(kalgebra, name, counted)
    return calls


def test_each_counted_helper_runs_where_it_must(monkeypatch):
    """A structure-constant K and the quaternions run the walk and the
    certificate of `AlgebraK`; a broken table and a broken character run
    their scans."""
    calls = counting(monkeypatch)
    K = group_algebra(cyclic_group(3), QQ)
    assert with_table(K, quads_of(K)).generators == K.generators
    assert calls == {"_basis_walk": 1, "_triple_certificate": 1}
    calls.clear()
    quaternion_algebra(QQ, -QQ.one, QQ.zero, QQ.zero, QQ.one)
    assert calls == {"_basis_walk": 1, "_triple_certificate": 1}
    calls.clear()
    G = group_from_presentation_gh4(3)
    with pytest.raises(AlgebraError, match="not associative"):
        GroupData(G.labels, non_associative_swap(G, random.Random(0)))
    chi = [QQ.one] * G.order
    chi[5] = -QQ.one
    assert not kalgebra.validate_character(G, chi).ok
    assert calls == {"_group_table_scan": 1, "_character_pair_scan": 1}


GROUP_SPECS = [p for p in SPECS if json.loads(p.read_text())["K"]["kind"] == "group" and p.stem != "sweedler_bad"]


@pytest.mark.parametrize("verb", sorted(cli.RUNNERS))
@pytest.mark.parametrize("path", GROUP_SPECS, ids=[p.stem for p in GROUP_SPECS])
def test_valid_group_specs_run_no_full_scan(path, verb, monkeypatch, capsys):
    calls = counting(monkeypatch)
    assert cli.main([verb, str(path), "--format", "json"]) == 0
    assert capsys.readouterr().err == ""
    assert calls == {}


def test_gh4_64_runs_no_full_scan(monkeypatch):
    calls = counting(monkeypatch)
    G = group_from_presentation_gh4(64)
    K = group_algebra(G, QQ)
    alpha = endo_from_character(K, character_from_values(G, QQ, {"g": 1, "h": -1}))
    assert alpha.generators == K.generators == G.generators == (G.labels.index("h"), G.labels.index("g"))
    assert calls == {}


# -- seeded mistakes -------------------------------------------------------------


def test_seeded_light_test_that_passes_everything_is_caught(monkeypatch):
    monkeypatch.setattr(kalgebra, "_light_test", lambda table, gens: True)
    with pytest.raises(AssertionError):
        test_non_associative_swaps_name_the_scans_triple("gh4(3)")


def test_seeded_character_certificate_on_the_first_generator_only_is_caught(monkeypatch):
    """gh4's characters checked on h alone pass values that g refutes."""
    monkeypatch.setattr(kalgebra, "validate_character", mutant(
        kalgebra.validate_character, "for g in G.generators", "for g in G.generators[:1]"))
    with pytest.raises(AssertionError):
        test_character_certificate_matches_the_scan("gh4(3)")
