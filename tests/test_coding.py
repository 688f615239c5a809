"""Control validation and enumeration tests.

The full catalogs for 2 and 3 users are cross-checked against a brute-force
oracle that tests every subset of valid queue indexes directly.
"""

import random
from itertools import combinations

import pytest

from becsim.coding import (
    ControlSpec,
    _cc_pairs,
    enumerate_controls,
    max_destinations_bound,
    validate_bcr,
)
from becsim.core import ConfigError, QueueIndex, UserSet, validate_cc


def C(*pairs):
    return ControlSpec.of(*pairs)


class TestValidateBcr:
    def test_two_sided_pair(self):
        assert validate_bcr(C(((2,), (0, 1)), ((0, 1), (2,))))

    def test_single_pair_vacuous(self):
        assert validate_bcr(C(((), (0,))))

    def test_chain_is_not_combinable(self):
        assert not validate_bcr(C(((1,), (0,)), ((2,), (1,))))

    def test_three_way_swap(self):
        assert validate_bcr(C(((1, 2), (0,)), ((0, 2), (1,)), ((0, 1), (2,))))

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_equals_ordered_double_loop(self, n):
        """The pairwise rule reads as: for every ordered pair of distinct
        pairs, the first's destinations are heard by the second."""
        rng = random.Random(n)
        pairs = _cc_pairs(n)
        verdicts = set()
        for _ in range(500):
            spec = ControlSpec(frozenset(rng.sample(pairs, rng.randint(1, 4))))
            ordered = all(
                a.destinations.issubset(b.listeners)
                for a in spec.pairs
                for b in spec.pairs
                if a != b
            )
            assert validate_bcr(spec) == ordered, spec
            verdicts.add(ordered)
        assert verdicts == {True, False}


EX2 = C(((1, 2, 3, 5), (0,)), ((0, 2, 4), (1, 3)), ((0, 1, 3, 5), (2,)))


class TestDestinationBounds:
    def test_destinations_union(self):
        assert EX2.destinations == UserSet.of(0, 1, 2, 3)
        assert C(((), (0,))).destinations == UserSet.of(0)
        assert C(((1,), (0,)), ((0,), (1,))).destinations == UserSet.of(0, 1)

    def test_bound(self):
        assert max_destinations_bound(EX2) == 4
        assert min(qi.level for qi in EX2.pairs) == 5
        assert max_destinations_bound(C(((), (0,)))) == 1
        # a level-2 swap saturates the bound
        assert max_destinations_bound(C(((1,), (0,)), ((0,), (1,)))) == 2


def brute_force_catalog(n_users):
    """Independent enumeration: test every subset of valid queue indexes."""
    full = list(range(n_users))
    pairs = []
    for d_size in range(1, n_users + 1):
        for d in combinations(full, d_size):
            rest = [u for u in full if u not in d]
            for l_size in range(len(rest) + 1):
                for l in combinations(rest, l_size):
                    qi = QueueIndex(UserSet.of(*l), UserSet.of(*d))
                    if validate_cc(qi, n_users):
                        pairs.append(qi)
    found = set()
    for size in range(1, len(pairs) + 1):
        added = False
        for combo in combinations(pairs, size):
            ok = all(
                a.destinations.issubset(b.listeners)
                and b.destinations.issubset(a.listeners)
                for a, b in combinations(combo, 2)
            )
            if ok:
                found.add(ControlSpec(frozenset(combo)))
                added = True
        if not added:
            break
    return found


class TestEnumerateFull:
    def test_one_user(self):
        cat = enumerate_controls(1)
        assert [c for c in cat] == [C(((), (0,)))]

    def test_two_users_exact(self):
        cat = enumerate_controls(2)
        expected = {
            C(((), (0,))),
            C(((), (1,))),
            C(((1,), (0,))),
            C(((0,), (1,))),
            C(((1,), (0,)), ((0,), (1,))),
        }
        assert set(cat.controls) == expected
        assert len(cat) == 5

    @pytest.mark.parametrize("n", [2, 3])
    def test_matches_brute_force(self, n):
        cat = enumerate_controls(n)
        assert set(cat.controls) == brute_force_catalog(n)
        assert len(set(cat.controls)) == len(cat)

    def test_all_valid(self):
        cat = enumerate_controls(3)
        for spec in cat:
            assert validate_bcr(spec)
            for qi in spec.pairs:
                assert validate_cc(qi, 3)
            # destination sets across pairs are pairwise disjoint
            assert max_destinations_bound(spec) == len(spec.destinations)

    def test_too_many_users(self):
        with pytest.raises(ConfigError):
            enumerate_controls(6)
        with pytest.raises(ConfigError):
            enumerate_controls(0)


class TestEnumerateTable8:
    def test_counts_per_level(self):
        cat = enumerate_controls(4, "table8")
        assert len(cat) == 112
        by_level = {}
        for spec in cat:
            levels = {qi.level for qi in spec.pairs}
            assert len(levels) == 1  # intra-level only
            by_level.setdefault(levels.pop(), []).append(spec)
        assert {lv: len(cs) for lv, cs in by_level.items()} == {
            1: 4,
            2: 18,
            3: 52,
            4: 38,
        }

    def test_specific_families(self):
        cat = enumerate_controls(4, "table8")
        uncoded = [c for c in cat if c.nu == 1 and next(iter(c.pairs)).level == 1]
        assert len(uncoded) == 4
        lvl4_single = [
            c
            for c in cat
            if c.nu == 1
            and next(iter(c.pairs)).level == 4
            and len(next(iter(c.pairs)).destinations) == 1
        ]
        assert len(lvl4_single) == 4

    def test_subset_of_full(self):
        full = set(enumerate_controls(4).controls)
        assert set(enumerate_controls(4, "table8").controls) <= full

    def test_requires_four_users(self):
        with pytest.raises(ConfigError):
            enumerate_controls(3, "table8")


class TestCatalogIdentity:
    def test_pair_order_free(self):
        rng = random.Random(7)
        for spec in enumerate_controls(3):
            qs = list(spec.pairs)
            rng.shuffle(qs)
            assert ControlSpec(frozenset(qs)) == spec

    def test_deterministic(self):
        a = enumerate_controls(4, "table8")
        b = enumerate_controls(4, "table8")
        assert a.controls == b.controls

    def test_golden_files(self):
        import pathlib

        g = pathlib.Path(__file__).parent / "golden"
        assert (
            enumerate_controls(3).to_json() + "\n"
            == (g / "catalog_n3_full.json").read_text()
        )
        assert (
            enumerate_controls(4, "table8").to_json() + "\n"
            == (g / "catalog_n4_table8.json").read_text()
        )
