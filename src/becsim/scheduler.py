"""Token transition tables and max-weight control selection.

For each control, enumerating every reception set against a canonical
one-packet-per-queue state gives the exact distribution of where each
pending token goes: stays put, moves to another virtual queue, or reaches
its destination.  The tokens are moved by ``apply_rpm`` on that state, so
these tables are the independent reference for the rows that ``sim``
folds from ``plan_moves`` alone.  Where the tokens land depends only on
the control and the reception set, so a per-process memo keeps each
landing once and every erasure model's pmf is folded over the memo, as
``sim`` does with its delta tables.  Control selection weighs those
transition probabilities against the current counter values and picks the
control with the largest total expected drift.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Mapping, Optional

from .channel import ErasureModel
from .coding import ControlCatalog, ControlSpec, validate_bcr
from .core import NetworkState, QueueIndex
from .movement import ReceptionOutcome, apply_rpm, synthesize_state

DELIVERED = "d"

_TOL = 1e-12


def control_nodes(spec: ControlSpec) -> list[tuple[QueueIndex, int]]:
    """The virtual queues a control acts on: one per (pair, destination)."""
    return [(qi, i) for qi in spec.sorted_pairs for i in qi.destinations]


_LANDING_CACHE: dict = {}


def _landings(spec: ControlSpec, nodes, n_users: int, s, pad_constituents):
    """Where each of the control's nodes lands under reception set s,
    aligned with nodes; ``apply_rpm`` runs once per key in a process."""
    key = (n_users, spec, s.mask, pad_constituents)
    landings = _LANDING_CACHE.get(key)
    if landings is None:
        state = synthesize_state(
            n_users,
            [
                (tuple(qi.listeners), tuple(qi.destinations), pad_constituents)
                for qi in spec.sorted_pairs
            ],
        )
        native_node = {}
        for qi in spec.sorted_pairs:
            pkt = state.queue(qi)[0]
            for i in qi.destinations:
                native_node[state.find_token(qi, i, pkt.pid).native] = (qi, i)
        plan = apply_rpm(state, spec, None, ReceptionOutcome(s))
        landed = {}
        for native, _src, dst in plan.token_moves:
            landed[native_node[native]] = DELIVERED if dst is None else dst
        # untouched tokens stay put
        landings = tuple(landed.get(node, node) for node in nodes)
        _LANDING_CACHE[key] = landings
    return landings


def derive_transitions(
    spec: ControlSpec, model: ErasureModel, *, pad_constituents: int = 0
) -> dict:
    """Exact per-token transition probabilities for one control.

    pad_constituents adds already-delivered natives to the canonical packets;
    the result must not depend on it (movement sees only queue indexes).
    """
    assert validate_bcr(spec)
    nodes = control_nodes(spec)
    buckets = [{} for _ in nodes]
    for s, prob in model.pmf():
        landings = _landings(spec, nodes, model.n_users, s, pad_constituents)
        for target, bucket in zip(landings, buckets):
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


def reward(state: NetworkState, spec: ControlSpec, edges: dict):
    """Total expected counter drift if this control is transmitted now."""
    total = 0
    for node, targets in edges.items():
        k_m = state.counter(*node)
        drift = k_m
        for target, p in targets.items():
            if target == DELIVERED:
                continue  # delivery is an absorbing edge with weight zero
            drift = drift - p * state.counter(target[0], target[1])
        if drift > 0:
            total = total + drift
    return total


def eligible(state: NetworkState, spec: ControlSpec) -> bool:
    """A control may be sent only when every involved counter is positive."""
    return all(
        state.counter(qi, i) > 0
        for qi in spec.sorted_pairs
        for i in qi.destinations
    )


def select_control(
    state: NetworkState, catalog: ControlCatalog, table: TransitionTable
) -> Optional[ControlSpec]:
    """Max-weight choice; ties broken by catalog order; None when nothing
    can be sent (all queues empty or no eligible control)."""
    best = None
    best_reward = None
    for spec in catalog:
        if not eligible(state, spec):
            continue
        r = reward(state, spec, table.edges(spec))
        if best is None or r > best_reward:
            best, best_reward = spec, r
    return best
