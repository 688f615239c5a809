"""Erasure/arrival model tests; exact rational queries cross-checked against
a brute-force subset enumeration, sampling checked empirically."""

import math
import random
from fractions import Fraction as F
from itertools import product

import pytest

from becsim.channel import (
    ArrivalModel,
    ErasureModel,
    epsilon_g,
    make_rng,
    p_gs,
    sample_arrivals,
    sample_reception,
)
from becsim.core import ConfigError, UserSet


def U(*xs):
    return UserSet.of(*xs)


class TestPGs:
    def test_iid_closed_form(self):
        m = ErasureModel.iid(3, F(1, 2))
        assert p_gs(m, U(0, 1), U()) == F(1, 4)
        assert epsilon_g(m, U(0, 1)) == F(1, 4)
        assert p_gs(m, U(), U()) == 1
        assert p_gs(m, U(0), U(1, 2)) == F(1, 8)

    def test_uniform_joint(self):
        m = ErasureModel.joint(2, {(): F(1, 4), (0,): F(1, 4), (1,): F(1, 4), (0, 1): F(1, 4)})
        assert p_gs(m, U(0), U(1)) == F(1, 4)
        assert p_gs(m, U(), U()) == 1

    def test_overlap_rejected(self):
        m = ErasureModel.iid(3, 0.5)
        with pytest.raises(ConfigError):
            p_gs(m, U(0), U(0, 1))

    def test_iid_equals_equivalent_joint(self):
        eps = [F(1, 3), F(2, 5), F(1, 7)]
        iid = ErasureModel.iid(3, eps)
        pmf = {s: p for s, p in iid.pmf()}
        assert sum(pmf.values()) == 1
        joint = ErasureModel.joint(3, pmf)
        for g_bits in product([0, 1], repeat=3):
            for s_bits in product([0, 1], repeat=3):
                g = UserSet.from_iterable(i for i in range(3) if g_bits[i])
                s = UserSet.from_iterable(i for i in range(3) if s_bits[i])
                if (g & s).mask:
                    continue
                assert p_gs(iid, g, s) == p_gs(joint, g, s)

    def test_joint_matches_oracle(self):
        rng = random.Random("pgs-oracle")
        weights = [rng.randrange(1, 20) for _ in range(8)]
        total = sum(weights)
        pmf = {UserSet(m): F(w, total) for m, w in zip(range(8), weights)}
        model = ErasureModel.joint(3, pmf)
        for g_mask in range(8):
            for s_mask in range(8):
                if g_mask & s_mask:
                    continue
                oracle = sum(
                    pmf[UserSet(r)]
                    for r in range(8)
                    if (r & s_mask) == s_mask and not (r & g_mask)
                )
                assert p_gs(model, UserSet(g_mask), UserSet(s_mask)) == oracle

    def test_bad_pmf_rejected(self):
        with pytest.raises(ConfigError):
            ErasureModel.joint(2, {(): 0.5, (0,): 0.4})
        with pytest.raises(ConfigError):
            ErasureModel.joint(2, {(): 1.5, (0,): -0.5})
        with pytest.raises(ConfigError):
            ErasureModel.iid(2, 1.5)


class TestSampling:
    def test_degenerate_erasure(self):
        never = ErasureModel.iid(3, 0)
        always = ErasureModel.iid(3, 1)
        rng = make_rng(1, "erasures")
        for _ in range(20):
            assert sample_reception(never, rng) == UserSet.full(3)
            assert sample_reception(always, rng) == U()

    def test_iid_frequencies(self):
        m = ErasureModel.iid(2, 0.5)
        rng = make_rng(7, "erasures")
        counts = {}
        trials = 1_000_000
        for _ in range(trials):
            s = sample_reception(m, rng)
            counts[s.mask] = counts.get(s.mask, 0) + 1
        for mask in range(4):
            assert abs(counts.get(mask, 0) / trials - 0.25) < 0.002

    def test_joint_frequencies(self):
        pmf = {(): 0.1, (0,): 0.2, (1,): 0.3, (0, 1): 0.4}
        m = ErasureModel.joint(2, pmf)
        rng = make_rng(9, "erasures")
        trials = 200_000
        counts = {}
        for _ in range(trials):
            s = sample_reception(m, rng)
            counts[s.mask] = counts.get(s.mask, 0) + 1
        for key, p in pmf.items():
            mask = UserSet.from_iterable(key).mask
            sigma = math.sqrt(p * (1 - p) / trials)
            assert abs(counts.get(mask, 0) / trials - p) < 4 * sigma

    def test_reproducible_streams(self):
        m = ErasureModel.iid(4, 0.3)
        a = [sample_reception(m, make_rng(42, "erasures")) for _ in range(1)]
        b = [sample_reception(m, make_rng(42, "erasures")) for _ in range(1)]
        assert a == b
        r1 = make_rng(42, "erasures")
        r2 = make_rng(42, "arrivals")
        assert [r1.random() for _ in range(5)] != [r2.random() for _ in range(5)]


class _TopDraw:
    """An rng whose every draw is the largest double below 1, a value
    ``random()`` can return and which a float cumulative sum of 0.7, 0.2
    and 0.1 does not exceed."""

    def random(self):
        return 0.9999999999999999


class TestZeroMassOutcomes:
    def test_erasure_draw_above_rounded_total(self):
        pmf = {(0,): 0.7, (1,): 0.2, (2,): 0.1, (0, 1, 2): 0}
        m = ErasureModel.joint(3, pmf)
        assert sample_reception(m, _TopDraw()) == U(2)

    def test_arrival_draw_above_rounded_total(self):
        pmf = {(0, 0): 0.7, (1, 0): 0.2, (0, 1): 0.1, (2, 2): 0}
        m = ArrivalModel.joint(2, pmf)
        assert sample_arrivals(m, _TopDraw()) == (0, 1)


class TestArrivals:
    def test_bernoulli_rates(self):
        m = ArrivalModel.bernoulli([0.2, 0.7])
        assert m.rates == (0.2, 0.7)
        rng = make_rng(3, "arrivals")
        trials = 100_000
        totals = [0, 0]
        for _ in range(trials):
            batch = sample_arrivals(m, rng)
            assert all(c in (0, 1) for c in batch)
            totals = [t + c for t, c in zip(totals, batch)]
        for i, rate in enumerate(m.rates):
            sigma = math.sqrt(rate * (1 - rate) / trials)
            assert abs(totals[i] / trials - rate) < 4 * sigma

    def test_joint_rates_and_support(self):
        pmf = {(0, 0): F(1, 2), (2, 1): F(1, 4), (0, 3): F(1, 4)}
        m = ArrivalModel.joint(2, pmf)
        assert m.rates == (F(1, 2), F(1, 1))
        rng = make_rng(11, "arrivals")
        seen = {sample_arrivals(m, rng) for _ in range(1000)}
        assert seen <= {(0, 0), (2, 1), (0, 3)}

    def test_validation(self):
        with pytest.raises(ConfigError):
            ArrivalModel.bernoulli([1.5])
        with pytest.raises(ConfigError):
            ArrivalModel.joint(2, {(0,): 1})
        with pytest.raises(ConfigError):
            ArrivalModel.joint(1, {(0,): 0.5, (1,): 0.4})
