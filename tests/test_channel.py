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
    exact,
    make_rng,
    sample_arrivals,
    sample_reception,
)
from becsim.cli import _build_parser, _document, _sim_config
from becsim.core import ConfigError, UserSet


def U(*xs):
    return UserSet.of(*xs)


class TestPGs:
    def test_iid_closed_form(self):
        m = ErasureModel.iid(3, F(1, 2))
        assert m.p_gs(U(0, 1), U()) == F(1, 4)
        assert epsilon_g(m, U(0, 1)) == F(1, 4)
        assert m.p_gs(U(), U()) == 1
        assert m.p_gs(U(0), U(1, 2)) == F(1, 8)

    def test_uniform_joint(self):
        m = ErasureModel.joint(2, {(): F(1, 4), (0,): F(1, 4), (1,): F(1, 4), (0, 1): F(1, 4)})
        assert m.p_gs(U(0), U(1)) == F(1, 4)
        assert m.p_gs(U(), U()) == 1

    def test_overlap_rejected(self):
        m = ErasureModel.iid(3, 0.5)
        with pytest.raises(ConfigError):
            m.p_gs(U(0), U(0, 1))

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
                assert iid.p_gs(g, s) == joint.p_gs(g, s)

    def test_pmf_built_lazily_and_kept(self, monkeypatch):
        builds = []
        build = ErasureModel._build_pmf
        monkeypatch.setattr(
            ErasureModel, "_build_pmf", lambda m: builds.append(m) or build(m)
        )
        ErasureModel.iid(16, F(1, 3))
        assert not builds  # construction computes none of the 2**16 products
        model = ErasureModel.iid(3, [F(1, 3), F(2, 5), F(1, 7)])
        first = list(model.pmf())
        assert list(model.pmf()) == first
        assert len(builds) == 1
        assert [s.mask for s, _ in first] == list(range(8))
        assert first[5][1] == F(2, 3) * F(2, 5) * F(6, 7)

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
                assert model.p_gs(UserSet(g_mask), UserSet(s_mask)) == oracle

    def test_bad_pmf_rejected(self):
        with pytest.raises(ConfigError):
            ErasureModel.joint(2, {(): 0.5, (0,): 0.4})
        with pytest.raises(ConfigError):
            ErasureModel.joint(2, {(): 1.5, (0,): -0.5})
        with pytest.raises(ConfigError):
            ErasureModel.iid(2, 1.5)
        # NaN compares false with everything, so no sum check can catch it
        with pytest.raises(ConfigError):
            ErasureModel.joint(1, {(): float("nan"), (0,): 1})
        with pytest.raises(ConfigError):
            ErasureModel.iid(2, float("nan"))

    # UserSet is an int, which pytest would name by its str(); keep the positional id
    @pytest.mark.parametrize(
        "key", [(2,), (0, 20), (-1,), pytest.param(U(0, 2), id="key3")]
    )
    def test_unknown_users_rejected(self, key):
        with pytest.raises(ConfigError, match="mentions unknown users"):
            ErasureModel.joint(2, {key: 1})


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


class _Draws:
    """An rng that returns the given draws in order."""

    def __init__(self, draws):
        self._draws = iter(draws)

    def random(self):
        return next(self._draws)


def _draws_around(eps):
    """The k/2**53 draws of ``random()`` just below, at and above eps's
    exact threshold ceil(eps * 2**53)."""
    k0 = math.ceil(F(eps) * 2**53)
    return [k / 2**53 for k in (k0 - 1, k0, k0 + 1) if 0 <= k < 2**53]


PROBABILITIES = [0, 1, F(1, 4), F(1, 3), F(2, 7), F(999, 1000), 0.3, 0.25]


class TestSamplingThresholds:
    @pytest.mark.parametrize("eps", PROBABILITIES, ids=str)
    def test_draws_split_where_eps_does(self, eps):
        m = ErasureModel.iid(1, eps)
        for u in _draws_around(eps):
            assert (m.sample(_Draws([u])) == U(0)) == (u >= eps), u

    @pytest.mark.parametrize("rate", PROBABILITIES, ids=str)
    def test_draws_split_where_arrival_rate_does(self, rate):
        m = ArrivalModel.bernoulli([rate])
        for u in _draws_around(rate):
            assert m.sample(_Draws([u])) == (int(u < rate),), u

    def test_float_threshold_follows_its_decimal(self):
        # the float 0.7 lies on the 2**-53 grid and its decimal above it,
        # so the draw u = 0.7 itself is an erasure, as u < 7/10
        assert (F(0.7) * 2**53).denominator == 1 and F(0.7) < F("0.7")
        draws = sorted(set(_draws_around(0.7) + _draws_around(F("0.7"))))
        assert 0.7 in draws
        m = ErasureModel.iid(1, 0.7)
        for u in draws:
            assert (m.sample(_Draws([u])) == U(0)) == (u >= F("0.7")), u

    def test_float_arrival_rate_follows_its_decimal(self):
        # as for ε: the draw u = 0.7 is an arrival at rate 7/10, for the
        # float, its Fraction twin and the command line's --lambda 0.7 alike
        draws = sorted(set(_draws_around(0.7) + _draws_around(F("0.7"))))
        assert 0.7 in draws
        args = _build_parser().parse_args(["simulate", "--n", "1", "--lambda", "0.7"])
        twins = [
            ArrivalModel.bernoulli([0.7]),
            ArrivalModel.bernoulli([F(7, 10)]),
            _sim_config(_document(args)).arrivals,
        ]
        for u in draws:
            assert {m.sample(_Draws([u])) for m in twins} == {(int(u < F("0.7")),)}, u

    def test_float_arrival_rates_sample_as_their_fraction_twins(self):
        rng = random.Random("arrival-twins")
        rates = [0.3, 0.25, 0.7, 0.1, 1 / 3, 2 / 3]
        rates += [rng.random() for _ in range(200)]
        for rate in rates:
            twins = [ArrivalModel.bernoulli([r]) for r in (rate, exact(rate))]
            for u in _draws_around(rate) + _draws_around(exact(rate)):
                samples = {m.sample(_Draws([u])) for m in twins}
                assert len(samples) == 1, (rate, u)

    def test_float_arrival_pmf_samples_as_its_fraction_twin(self):
        vecs = [(0, 0), (1, 0), (0, 1), (1, 1)]
        floats = ArrivalModel.joint(2, dict(zip(vecs, (0.1, 0.2, 0.3, 0.4))))
        fractions = ArrivalModel.joint(
            2, dict(zip(vecs, (F(1, 10), F(1, 5), F(3, 10), F(2, 5))))
        )
        assert floats.rates == fractions.rates == (F(3, 5), F(7, 10))
        a, b = make_rng(5, "twin"), make_rng(5, "twin")
        draws = range(2000)
        assert [floats.sample(a) for _ in draws] == [fractions.sample(b) for _ in draws]

    def test_per_user_list(self):
        eps = [F(1, 3), F(2, 7), F(999, 1000)]
        m = ErasureModel.iid(3, eps)
        for draws in product(*map(_draws_around, eps)):
            want = UserSet.from_iterable(
                i for i, (u, e) in enumerate(zip(draws, eps)) if u >= e
            )
            assert m.sample(_Draws(draws)) == want, draws


class TestExactValues:
    def test_float_reads_as_the_command_line_reads_it(self):
        args = _build_parser().parse_args(
            ["simulate", "--n", "3", "--iid-eps", "0.3", "--lambda", "0,0,0"]
        )
        from_cli = _sim_config(_document(args)).erasure
        m = ErasureModel.iid(3, 0.3)
        assert m.eps == from_cli.eps == (F(3, 10),) * 3
        assert list(m.pmf()) == list(from_cli.pmf())

    def test_joint_entries_read_as_decimals(self):
        m = ErasureModel.joint(2, {(): 0.1, (0,): 0.2, (1,): 0.3, (0, 1): 0.4})
        assert [p for _s, p in m.pmf()] == [F(1, 10), F(1, 5), F(3, 10), F(2, 5)]
        assert exact(0.1) == exact("0.1") == exact(F(1, 10)) == F(1, 10)


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
        with pytest.raises(ConfigError):
            ArrivalModel.joint(1, {(0,): float("nan"), (1,): 1})
