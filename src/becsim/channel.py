"""Stochastic models: per-slot reception sets and exogenous arrivals.

Erasures are independent across time but may be arbitrarily correlated
across users (joint mode).  An erasure model holds each ε and pmf entry as
its ``exact`` value (a float is the decimal it prints as), so probability
queries are exact; an arrival model samples its rates and pmf entries
through their ``exact`` values too, so a float input samples as its
``Fraction`` twin does.  Sampling converts to float once; an iid ε or
Bernoulli rate goes through a float threshold that splits the draws of
``random()`` exactly where it does, so every draw keeps its outcome.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from fractions import Fraction
from math import ceil
from typing import Iterator, Mapping, Sequence

from .core import EMPTY, ConfigError, UserSet, check_n_users

_TOL = 1e-12


def make_rng(seed, name: str) -> random.Random:
    """Named substream: one master seed, independent deterministic streams."""
    return random.Random(f"{seed}/{name}")


def exact(value) -> Fraction:
    """A number or numeric string as a Fraction; a float is the decimal it
    prints as (the command line's rule): ``exact(0.3) == Fraction(3, 10)``."""
    return Fraction(str(value))


def _sampling_table(entries) -> tuple:
    """Positive-mass (outcome, p) entries with float cumulative bounds."""
    outcomes, bounds = [], []
    acc = 0.0
    for outcome, p in entries:
        if p:
            acc += float(p)
            outcomes.append(outcome)
            bounds.append(acc)
    return outcomes, bounds


def _threshold(eps) -> float:
    """The float t with u >= t exactly when u >= eps (so u < t exactly
    when u < eps), for every u = k/2**53 that ``random()`` returns."""
    return ceil(eps * 2**53) / 2**53


def _draw(table, rng: random.Random):
    """The first outcome whose bound exceeds a uniform draw; a draw at or
    above the rounded total takes the last positive-mass outcome."""
    outcomes, bounds = table
    return outcomes[min(bisect_right(bounds, rng.random()), len(outcomes) - 1)]


class ErasureModel:
    """Distribution of the per-slot reception set, in ``exact`` values."""

    def __init__(self, n_users: int, eps: Sequence | None, pmf: dict | None):
        self.n_users = n_users
        self.eps = None if eps is None else tuple(map(exact, eps))
        self._thresholds = None if eps is None else tuple(map(_threshold, self.eps))
        self._pmf = None if pmf is None else {m: exact(p) for m, p in pmf.items()}
        self._entries = None
        self._table = None if pmf is None else _sampling_table(self.pmf())

    @classmethod
    def iid(cls, n_users: int, eps) -> "ErasureModel":
        """Independent erasures; eps is one probability or one per user."""
        check_n_users(n_users)
        if not isinstance(eps, (list, tuple)):
            eps = [eps] * n_users
        if len(eps) != n_users:
            raise ConfigError("need one erasure probability per user")
        for e in eps:
            if not 0 <= e <= 1:
                raise ConfigError(f"erasure probability {e} outside [0, 1]")
        return cls(n_users, eps, None)

    @classmethod
    def joint(cls, n_users: int, pmf: Mapping) -> "ErasureModel":
        """Explicit pmf over reception subsets; missing subsets have mass 0."""
        check_n_users(n_users)
        table = {}
        total = 0
        for key, p in pmf.items():
            users = tuple(key)  # a UserSet iterates over its users
            if not all(0 <= u < n_users for u in users):
                raise ConfigError(f"reception set {key!r} mentions unknown users")
            s = UserSet.of(*users)
            if not p >= 0:
                raise ConfigError(f"probability {p} is negative or not a number")
            table[s] = table.get(s, 0) + p
            total += p
        if abs(total - 1) > _TOL:
            raise ConfigError(f"reception pmf sums to {total}, not 1")
        return cls(n_users, None, table)

    def pmf(self) -> Iterator[tuple[UserSet, object]]:
        """All (reception set, probability) entries, zero-mass sets omitted;
        built on the first call and kept."""
        if self._entries is None:
            self._entries = tuple(self._build_pmf())
        return iter(self._entries)

    def _build_pmf(self) -> Iterator[tuple[UserSet, object]]:
        if self._pmf is not None:
            for mask in sorted(self._pmf):
                p = self._pmf[mask]
                if p:
                    yield UserSet(mask), p
            return
        for mask in range(1 << self.n_users):
            s = UserSet(mask)
            p = 1
            for i in range(self.n_users):
                p = p * ((1 - self.eps[i]) if i in s else self.eps[i])
            if p:
                yield s, p

    def p_gs(self, g: UserSet, s: UserSet):
        """P(everyone in g erased, everyone in s received)."""
        if not g.isdisjoint(s):
            raise ConfigError("erased and received sets overlap")
        if self.eps is not None:
            p = 1
            for i in g:
                p = p * self.eps[i]
            for i in s:
                p = p * (1 - self.eps[i])
            return p
        return sum(
            (p for r, p in self.pmf() if s.issubset(r) and r.isdisjoint(g)), Fraction(0)
        )

    def sample(self, rng: random.Random) -> UserSet:
        if self._thresholds is not None:
            mask = 0
            for i, threshold in enumerate(self._thresholds):
                if rng.random() >= threshold:
                    mask |= 1 << i
            return UserSet(mask)
        return _draw(self._table, rng)


class ArrivalModel:
    """Distribution of the per-slot batch-arrival vector."""

    def __init__(self, n_users, rates, table):
        self.n_users = n_users
        self.rates = rates  # as given; sampling reads their ``exact`` values
        self._table = table  # None: independent Bernoulli arrivals
        self._thresholds = (
            tuple(_threshold(exact(r)) for r in rates) if table is None else None
        )

    @classmethod
    def bernoulli(cls, rates: Sequence) -> "ArrivalModel":
        """At most one arrival per user per slot, independently."""
        rates = tuple(rates)
        for r in rates:
            if not 0 <= r <= 1:
                raise ConfigError(f"arrival rate {r} outside [0, 1]")
        return cls(len(rates), rates, None)

    @classmethod
    def joint(cls, n_users: int, pmf: Mapping[tuple, object]) -> "ArrivalModel":
        outcomes, probs = [], []
        total = 0
        for vec, p in pmf.items():
            vec = tuple(vec)
            if len(vec) != n_users or any(c < 0 or c != int(c) for c in vec):
                raise ConfigError(f"bad batch vector {vec}")
            if not p >= 0:
                raise ConfigError(f"probability {p} is negative or not a number")
            outcomes.append(tuple(int(c) for c in vec))
            probs.append(exact(p))
            total += probs[-1]
        if abs(total - 1) > _TOL:
            raise ConfigError(f"arrival pmf sums to {total}, not 1")
        rates = tuple(
            sum(p * vec[i] for vec, p in zip(outcomes, probs))
            for i in range(n_users)
        )
        return cls(n_users, rates, _sampling_table(zip(outcomes, probs)))

    def sample(self, rng: random.Random) -> tuple[int, ...]:
        if self._table is None:
            return tuple(
                1 if rng.random() < t else 0 for t in self._thresholds
            )
        return _draw(self._table, rng)


def epsilon_g(model: ErasureModel, g: UserSet):
    """Probability that everyone in g misses the slot."""
    return model.p_gs(g, EMPTY)


def sample_reception(model: ErasureModel, rng: random.Random) -> UserSet:
    return model.sample(rng)


def sample_arrivals(model: ArrivalModel, rng: random.Random) -> tuple[int, ...]:
    return model.sample(rng)
