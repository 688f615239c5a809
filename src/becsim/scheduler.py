"""Per-(control, reception set) plans and token transition tables.

``deltas_of`` plans the moves of one control under every reception set
with ``plan_moves``, set arithmetic with no packet state, and maps the
routes to queue ids: one route (source, target or None) per popped head.
A per-process memo keeps each control's table, so the simulator's compile
and every transition table read one plan per (control, reception set).

``fold_landings`` is the landing rule.  The pending token of destination i
in a head routed to queue q lands at (q, i) when i is one of q's
destinations and is delivered otherwise (a head that leaves the network
delivers all its tokens); the tokens of a head that is not popped stay put.
Folding a reception pmf over these landings gives the exact distribution
of where each pending token goes.  Both callers fold ``scaled_pmf``, the
pmf as ints over its least common denominator D: ``derive_transitions``
divides each landing's sum by D once, and the simulator's max-weight rows
are the int sums with the deliveries dropped.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import lcm
from typing import Mapping

from .channel import ErasureModel
from .coding import ControlCatalog, ControlSpec, _cc_pairs
from .core import EMPTY, QueueIndex, UserSet
from .movement import check_control, plan_moves

DELIVERED = "d"

_TOL = 1e-12


@cache
def _queue_space(n_users: int):
    """The queues of an n-user network in id order, the id of each queue,
    and per id its weight |D| and level, plus each user's root queue id."""
    queues = tuple(_cc_pairs(n_users))
    qidx = {qi: k for k, qi in enumerate(queues)}
    weights = tuple(len(qi.destinations) for qi in queues)
    levels = tuple(qi.level for qi in queues)
    roots = tuple(qidx[QueueIndex(EMPTY, UserSet.of(i))] for i in range(n_users))
    return queues, qidx, weights, levels, roots


@dataclass(frozen=True, slots=True)
class _Delta:
    case: str
    routes: tuple  # (src, dst | None) per popped head, in pop order
    merged: bool  # the popped heads form one fresh packet at their common dst
    deliveries: tuple  # the users that decode, sorted


_PLAN_CACHE: dict = {}


def deltas_of(spec: ControlSpec, n_users: int) -> dict:
    """{s_mask: _Delta} of one control over every reception set of n_users
    users; planned once per (n_users, control) in a process.  Raises
    ValueError for a control that is not valid under n_users."""
    key = (n_users, spec)
    deltas = _PLAN_CACHE.get(key)
    if deltas is None:
        check_control(spec, n_users)
        qidx = _queue_space(n_users)[1]
        deltas = {}
        for s_mask in range(1 << n_users):
            moves = plan_moves(spec, UserSet(s_mask))
            deltas[s_mask] = _Delta(
                case=moves.case.value,
                # a delivered head's target is None, which qidx.get keeps
                routes=tuple((qidx[src], qidx.get(dst)) for src, dst in moves.routes),
                merged=moves.merged,
                deliveries=tuple(sorted(user for _qi, user in moves.decoded)),
            )
        _PLAN_CACHE[key] = deltas
    return deltas


def fold_landings(queues, queue_ids, deltas, pmf) -> tuple:
    """Fold a reception pmf, any iterable of (S, p), over where a control's
    pending tokens land.

    Node (q, i) is the token of user i in the head of queue id q.  Returns
    the nodes in pair order and, per node, {landing: summed p} in the order
    landings first occur: (dst, i) for a head routed to a queue dst that
    keeps i as a destination, None for a delivered token, (q, i) for a head
    that is not popped.
    """
    nodes = [(q, i) for q in queue_ids for i in queues[q].destinations]
    buckets = [{} for _ in nodes]
    for s, p in pmf:
        went = dict(deltas[s].routes)
        for node, bucket in zip(nodes, buckets):
            q, i = node
            target = node
            if q in went:
                dst = went[q]
                delivered = dst is None or i not in queues[dst].destinations
                target = None if delivered else (dst, i)
            bucket[target] = bucket.get(target, 0) + p
    return nodes, buckets


def scaled_ints(values) -> tuple:
    """(D, [x·D]): exact values as ints over their least common denominator D."""
    scale = lcm(*(x.denominator for x in values))
    return scale, [x.numerator * (scale // x.denominator) for x in values]


def scaled_pmf(model: ErasureModel) -> tuple:
    """(D, [(S, p·D)]): the model's pmf as scaled_ints."""
    sets, probs = zip(*model.pmf())
    scale, ints = scaled_ints(probs)
    return scale, list(zip(sets, ints))


def derive_transitions(spec: ControlSpec, model: ErasureModel) -> dict:
    """Exact per-token transition probabilities for one control, keyed by
    node (QueueIndex, user) in pair order.  Raises ValueError for a control
    that is not valid under the model's users."""
    deltas = deltas_of(spec, model.n_users)
    queues, qidx = _queue_space(model.n_users)[:2]
    ids = [qidx[qi] for qi in spec.sorted_pairs]
    scale, pmf = scaled_pmf(model)
    nodes, buckets = fold_landings(queues, ids, deltas, pmf)

    def node_of(target):
        return DELIVERED if target is None else (queues[target[0]], target[1])

    return {
        (queues[q], i): {node_of(t): Fraction(w, scale) for t, w in bucket.items()}
        for (q, i), bucket in zip(nodes, buckets)
    }


@dataclass(frozen=True)
class TransitionTable:
    """Per-control token transition probabilities; immutable once built."""

    entries: Mapping[ControlSpec, dict]

    @classmethod
    def for_catalog(cls, catalog: ControlCatalog, model: ErasureModel):
        table = cls({spec: derive_transitions(spec, model) for spec in catalog})
        table.validate()
        return table

    def edges(self, spec: ControlSpec) -> dict:
        return self.entries[spec]

    def validate(self) -> None:
        """Raise ValueError unless every node's probabilities sum to one."""
        for spec, per_node in self.entries.items():
            for node, targets in per_node.items():
                total = sum(targets.values())
                if abs(total - 1) > _TOL:
                    raise ValueError(f"{spec!r} row {node!r} sums to {total}")

    def to_json(self) -> str:
        def node_key(node):
            qi, user = node
            return f"{qi!r}({user})"

        obj = {
            repr(spec): {
                node_key(node): {
                    (t if t == DELIVERED else node_key(t)): str(p)
                    for t, p in targets.items()
                }
                for node, targets in per_node.items()
            }
            for spec, per_node in self.entries.items()
        }
        return json.dumps(obj, sort_keys=True, indent=1)
