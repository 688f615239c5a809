"""Token transition tables.

For each control and reception set, ``plan_moves`` routes every popped head
by set arithmetic alone.  The pending token of destination i in a head
routed to queue q lands at (q, i) when i is one of q's destinations and is
delivered otherwise (a head that leaves the network delivers all its
tokens); the tokens of a head that is not popped stay put.  This is the
rule ``sim`` applies to its delta tables.  Folding the reception pmf over
these landings gives the exact distribution of where each pending token
goes.  Where the tokens land depends only on the control and the reception
set, so a per-process memo keeps each landing once and every erasure
model's pmf is folded over the memo.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Mapping

from .channel import ErasureModel
from .coding import ControlCatalog, ControlSpec, validate_bcr
from .core import QueueIndex, validate_cc
from .movement import plan_moves

DELIVERED = "d"

_TOL = 1e-12


def control_nodes(spec: ControlSpec) -> list[tuple[QueueIndex, int]]:
    """The virtual queues a control acts on: one per (pair, destination)."""
    return [(qi, i) for qi in spec.sorted_pairs for i in qi.destinations]


_LANDING_CACHE: dict = {}


def _landings(spec: ControlSpec, nodes, s):
    """Where each of the control's nodes lands under reception set s,
    aligned with nodes; planned once per key in a process."""
    key = (spec, s.mask)
    landings = _LANDING_CACHE.get(key)
    if landings is None:
        went = dict(plan_moves(spec, s).routes)
        landed = []
        for node in nodes:
            qi, i = node
            if qi not in went:
                landed.append(node)
            elif went[qi] is None or i not in went[qi].destinations:
                landed.append(DELIVERED)
            else:
                landed.append((went[qi], i))
        landings = _LANDING_CACHE[key] = tuple(landed)
    return landings


def derive_transitions(spec: ControlSpec, model: ErasureModel) -> dict:
    """Exact per-token transition probabilities for one control."""
    assert validate_bcr(spec)
    assert all(validate_cc(qi, model.n_users) for qi in spec.sorted_pairs)
    nodes = control_nodes(spec)
    buckets = [{} for _ in nodes]
    for s, prob in model.pmf():
        for target, bucket in zip(_landings(spec, nodes, s), buckets):
            bucket[target] = bucket.get(target, 0) + prob
    return dict(zip(nodes, buckets))


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
        for spec, per_node in self.entries.items():
            for node, targets in per_node.items():
                total = sum(targets.values())
                assert abs(total - 1) <= _TOL, (spec, node, total)

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
