"""Control enumeration and validation.

A control is an unordered set of (listeners, destinations) pairs, one per
queue the sender draws from; the head packets of those queues are XORed into
a single coded transmission.  A pair set is combinable iff every pair's
destination set is contained in the listener sets of all other pairs, which
guarantees each destination can cancel the foreign constituents.

``ControlSpec`` owns the facts derived from its pairs: the union of its
destination sets, L-tilde, its exit level and the like.  Each is computed
once per control; the planner, the compile and the checks read them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, permutations
from typing import Iterable, Iterator

from .core import EMPTY, ConfigError, QueueIndex, UserSet, check_n_users, validate_cc

FULL = "full"
TABLE8 = "table8"

# full enumeration is a clique search; beyond 5 users it explodes
_MAX_FULL_USERS = 5


@dataclass(frozen=True)
class ControlSpec:
    """An unordered, duplicate-free set of queue indexes to code together."""

    pairs: frozenset[QueueIndex]

    def __post_init__(self):
        if not self.pairs:
            raise ValueError("control must reference at least one queue")

    @classmethod
    def of(cls, *pairs: tuple[Iterable[int], Iterable[int]]) -> "ControlSpec":
        return cls(
            frozenset(
                QueueIndex(UserSet.from_iterable(l), UserSet.from_iterable(d))
                for l, d in pairs
            )
        )

    @property
    def nu(self) -> int:
        return len(self.pairs)

    @cached_property
    def sorted_pairs(self) -> tuple[QueueIndex, ...]:
        return tuple(sorted(self.pairs, key=QueueIndex.sort_key))

    @cached_property
    def involved(self) -> UserSet:
        """Union of all listener and destination sets."""
        out = EMPTY
        for qi in self.pairs:
            out = out | qi.listeners | qi.destinations
        return out

    @cached_property
    def common_listeners(self) -> UserSet:
        it = iter(self.pairs)
        out = next(it).listeners
        for qi in it:
            out = out & qi.listeners
        return out

    @cached_property
    def destinations(self) -> UserSet:
        """Union of all destination sets."""
        out = EMPTY
        for qi in self.pairs:
            out = out | qi.destinations
        return out

    @cached_property
    def tilde_l(self) -> UserSet:
        """Users listed in at least nu-1 of the listener sets.

        For a single pair the threshold is vacuous; every user qualifies.  The
        result is only ever intersected with a reception set, so the 16-user
        universe stands in for "everyone".
        """
        if self.nu == 1:
            return UserSet.full(16)
        counts: dict[int, int] = {}
        for qi in self.pairs:
            for u in qi.listeners:
                counts[u] = counts.get(u, 0) + 1
        need = self.nu - 1
        return UserSet.from_iterable(u for u, c in counts.items() if c >= need)

    @cached_property
    def exit_level(self) -> int:
        """The widest level among the pairs."""
        return max(qi.level for qi in self.pairs)

    def sort_key(self):
        return tuple(qi.sort_key() for qi in self.sorted_pairs)

    def __repr__(self):
        inner = " | ".join(
            f"{qi.listeners!r}->{qi.destinations!r}" for qi in self.sorted_pairs
        )
        return f"I[{inner}]"


def _compatible(a: QueueIndex, b: QueueIndex) -> bool:
    return a.destinations.issubset(b.listeners) and b.destinations.issubset(
        a.listeners
    )


def validate_bcr(spec: ControlSpec) -> bool:
    """True iff every pair's destinations are heard by all other pairs."""
    return all(_compatible(a, b) for a, b in combinations(spec.sorted_pairs, 2))


def max_destinations_bound(spec: ControlSpec) -> int:
    """Total destination count; sandwiched between nu and the minimum level."""
    total = sum(len(qi.destinations) for qi in spec.pairs)
    union = spec.destinations
    k = min(qi.level for qi in spec.pairs)
    assert spec.nu <= total == len(union) <= k, "catalog contains a BCR violation"
    return total


def _cc_pairs(n_users: int) -> list[QueueIndex]:
    full = (1 << n_users) - 1
    out = []
    d = full
    while d:  # nonempty destination sets
        rest = full & ~d
        l = rest
        while True:  # every listener set disjoint from d, including empty
            qi = QueueIndex(UserSet(l), UserSet(d))
            if validate_cc(qi, n_users):
                out.append(qi)
            if l == 0:
                break
            l = (l - 1) & rest
        d = (d - 1) & full
    out.sort(key=QueueIndex.sort_key)
    return out


@dataclass(frozen=True)
class ControlCatalog:
    """Immutable, deterministically ordered list of valid controls."""

    controls: tuple[ControlSpec, ...]
    n_users: int
    restriction: str

    def __len__(self):
        return len(self.controls)

    def __iter__(self) -> Iterator[ControlSpec]:
        return iter(self.controls)

    def __getitem__(self, i: int) -> ControlSpec:
        return self.controls[i]

    @cached_property
    def control_set(self) -> frozenset:
        return frozenset(self.controls)

    def to_json(self) -> str:
        obj = [
            [
                {"L": list(qi.listeners), "D": list(qi.destinations)}
                for qi in c.sorted_pairs
            ]
            for c in self.controls
        ]
        return json.dumps(obj, sort_keys=True)


def _enumerate_full(n_users: int) -> list[ControlSpec]:
    pairs = _cc_pairs(n_users)
    m = len(pairs)
    # compat_above[i]: bitmask of j > i combinable with i
    compat_above = [0] * m
    for i in range(m):
        for j in range(i + 1, m):
            if _compatible(pairs[i], pairs[j]):
                compat_above[i] |= 1 << j

    out: list[ControlSpec] = []
    stack: list[int] = []

    def extend(cand: int):
        j = cand
        while j:
            low = j & -j
            i = low.bit_length() - 1
            stack.append(i)
            out.append(ControlSpec(frozenset(pairs[k] for k in stack)))
            extend(cand & compat_above[i] & ~(low | (low - 1)))
            stack.pop()
            j &= ~low

    extend((1 << m) - 1)
    return out


# Curated intra-level templates for four users.  Each entry instantiates over
# an ordered tuple of distinct users; symmetric roles collapse in the dedupe.
_TABLE8_TEMPLATES: list = [
    lambda i: [((), (i,))],
    lambda i, j: [((j,), (i,)), ((i,), (j,))],
    lambda i, j: [((j,), (i,))],
    lambda i, j, k: [((j, k), (i,)), ((i,), (j, k))],
    lambda i, j, k: [((i,), (j, k))],
    lambda i, j, k: [((j, k), (i,)), ((i, k), (j,)), ((i, j), (k,))],
    lambda i, j, k: [((j, k), (i,)), ((i, k), (j,))],
    lambda i, j, k: [((j, k), (i,))],
    lambda i, j, k, l: [((j, k, l), (i,)), ((i,), (j, k, l))],
    lambda i, j, k, l: [((i,), (j, k, l))],
    lambda i, j, k, l: [((k, l), (i, j)), ((i, j), (k, l))],
    lambda i, j, k, l: [((k, l), (i, j)), ((i, j, l), (k,)), ((i, j, k), (l,))],
    lambda i, j, k, l: [((k, l), (i, j))],
    lambda i, j, k, l: [
        ((j, k, l), (i,)),
        ((i, k, l), (j,)),
        ((i, j, l), (k,)),
        ((i, j, k), (l,)),
    ],
    lambda i, j, k, l: [((j, k, l), (i,)), ((i, k, l), (j,)), ((i, j, l), (k,))],
    lambda i, j, k, l: [((j, k, l), (i,)), ((i, k, l), (j,))],
    lambda i, j, k, l: [((j, k, l), (i,))],
]


def _enumerate_table8(n_users: int) -> list[ControlSpec]:
    if n_users != 4:
        raise ConfigError("the intra-level restricted catalog is defined for 4 users")
    seen: set[ControlSpec] = set()
    out: list[ControlSpec] = []
    for template in _TABLE8_TEMPLATES:
        arity = template.__code__.co_argcount
        for tup in permutations(range(n_users), arity):
            spec = ControlSpec.of(*template(*tup))
            if spec not in seen:
                seen.add(spec)
                out.append(spec)
    return out


def enumerate_controls(n_users: int, restriction: str = FULL) -> ControlCatalog:
    check_n_users(n_users)
    if restriction == FULL:
        if n_users > _MAX_FULL_USERS:
            raise ConfigError(
                f"full enumeration supports at most {_MAX_FULL_USERS} users"
            )
        controls = _enumerate_full(n_users)
    elif restriction == TABLE8:
        controls = _enumerate_table8(n_users)
    else:
        raise ConfigError(f"unknown restriction {restriction!r}")

    controls.sort(key=ControlSpec.sort_key)
    for spec in controls:
        assert validate_bcr(spec)
        max_destinations_bound(spec)
    return ControlCatalog(tuple(controls), n_users, restriction)
