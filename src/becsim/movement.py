"""Packet movement after a coded transmission.

Given the transmitted control, the chosen packets, and the set S of users
that received the slot, the network state is rewritten deterministically.
The decision tree, with its branch labels:

  1       S empty: retransmit next slot, nothing moves.
  2.1     every destination received: all chosen packets leave the network.
  2.2.1   all receivers are involved in the control: each packet advances
          to a queue indexed by its new listener set, or exits.
  2.2.2A  wide reception: the XOR of the chosen packets is stored as a
          single composite in a strictly higher-level queue.
  2.2.2B  narrow reception outside the control: ignore the uninvolved
          receivers, then advance as in 2.2.1 (or do nothing if nobody
          involved received).

``plan_moves`` decides a slot from (control, reception set) alone, by set
arithmetic: the case, the users that decode, and one route per popped head.
``apply_rpm`` carries that plan out on a ``NetworkState``.  Every head packet
has one of four fates: held, delivered, relocated to a queue with a larger
listener set, or merged into a higher-level composite; one helper,
``_relocate``, performs the last two.  Every decoding event removes exactly
one pending token.  Auditing the state is the caller's job.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple, Optional, Sequence

from .core import (
    EMPTY,
    NetworkState,
    QueueIndex,
    RealPacket,
    UserSet,
    validate_cc,
)
from .coding import ControlSpec, validate_bcr


class RpmCase(Enum):
    RETRANSMIT = "1"
    ALL_SERVED = "2.1"
    ADVANCE = "2.2.1"
    MERGE = "2.2.2A"
    SHRINK = "2.2.2B"


@dataclass(frozen=True)
class ReceptionOutcome:
    received: UserSet


class MovePlan(NamedTuple):
    """The movement decision for one (control, reception set)."""

    case: RpmCase
    s_effective: UserSet  # S with uninvolved receivers dropped (2.2.2B)
    decoded: tuple  # (pair, user) per destination that received, pair order
    # (source, target | None) per popped head, in pop order; None = leaves
    # the network; a merge routes every head to the merge target
    routes: tuple
    merged: bool = False  # the popped heads form one fresh composite


@dataclass
class MovementPlan:
    case: Optional[RpmCase] = None
    s_effective: UserSet = EMPTY
    decoded: list = field(default_factory=list)  # (user, NativePacketId)
    # (pid, from_queue | None, to_queue | None); None source = newly formed,
    # None target = left its queue (delivered in full, or absorbed by a merge)
    real_moves: list = field(default_factory=list)
    # (native, (from_queue, user), (to_queue, user) | None); None = decoded
    token_moves: list = field(default_factory=list)
    merged: Optional[tuple] = None  # (fresh pid, target queue) for multi-pair merges
    retransmit: bool = False


def check_control(spec: ControlSpec, n_users: int) -> None:
    """Raise ValueError unless every pair of spec passes the compatibility
    criteria for n_users users and the pairs are combinable."""
    if not all(validate_cc(qi, n_users) for qi in spec.sorted_pairs):
        raise ValueError(f"{spec!r} fails the queue criteria for {n_users} users")
    if not validate_bcr(spec):
        raise ValueError(f"{spec!r} is not combinable")


def _resolve_chosen(state, pairs, chosen):
    if chosen is None:
        picked = {}
        for qi in pairs:
            q = state.queue(qi)
            if not q:
                raise ValueError(f"no packet available in {qi!r}")
            picked[qi] = q[0]
        return picked
    picked = dict(zip(pairs, chosen))
    for qi in pairs:
        p = picked.get(qi)
        if p is None or p.location != qi or p not in state.queue(qi):
            raise ValueError(f"chosen packet does not reside in {qi!r}")
    return picked


def plan_moves(spec: ControlSpec, s: UserSet) -> MovePlan:
    """Decide where each head of the control goes for reception set s.

    Queue dynamics depend on (control, reception set) alone, so this is set
    arithmetic on the listener and destination sets; no state is read.
    """
    pairs = spec.sorted_pairs
    # each destination that received cancels the foreign constituents and
    # keeps its own pending native
    decoded = tuple([(qi, i) for qi in pairs for i in qi.destinations & s])
    if not s:
        return MovePlan(RpmCase.RETRANSMIT, s, decoded, ())

    union_d = spec.destinations
    if union_d.issubset(s):
        return MovePlan(
            RpmCase.ALL_SERVED, s, decoded, tuple((qi, None) for qi in pairs)
        )

    involved = spec.involved
    if not (s - involved):
        return MovePlan(RpmCase.ADVANCE, s, decoded, _advance(spec, s))

    cut = len(spec.common_listeners | s | (union_d - s))
    if cut > spec.exit_level:
        target = QueueIndex(spec.common_listeners | s, union_d - s)
        assert target.level > spec.exit_level
        routes = tuple((qi, target) for qi in pairs)
        return MovePlan(RpmCase.MERGE, s, decoded, routes, len(pairs) > 1)

    s2 = s & involved
    if not s2:
        # only bystanders heard it; queue state already optimal
        return MovePlan(RpmCase.SHRINK, s2, decoded, ())
    # shrinking S cannot re-enter the other branches
    assert not union_d.issubset(s2)
    return MovePlan(RpmCase.SHRINK, s2, decoded, _advance(spec, s2))


def _advance(spec, s) -> tuple:
    """Each head advances to the queue of its new listener set, or exits;
    a head whose target is its own queue stays and keeps its position."""
    s_tilde = s & spec.tilde_l
    routes = []
    for qi in spec.sorted_pairs:
        remaining = qi.destinations - s
        if not remaining:
            routes.append((qi, None))
            continue
        target = QueueIndex(qi.listeners | (qi.destinations & s) | s_tilde, remaining)
        if target != qi:
            assert (target.level, target.sublevel) > (qi.level, qi.sublevel)
            routes.append((qi, target))
    return tuple(routes)


def apply_rpm(
    state: NetworkState,
    spec: ControlSpec,
    chosen: Optional[Sequence[RealPacket]],
    outcome: ReceptionOutcome,
) -> MovementPlan:
    """Mutate state according to the movement rules; return what happened.

    chosen lists one packet per pair in sorted-pair order; None takes the
    heads.  ``plan_moves`` decides; this carries its routes out.
    """
    check_control(spec, state.n_users)
    pairs = spec.sorted_pairs
    picked = _resolve_chosen(state, pairs, chosen)
    s = outcome.received
    if s >> state.n_users:
        raise ValueError("reception set mentions unknown users")
    moves = plan_moves(spec, s)
    plan = MovementPlan(
        case=moves.case,
        s_effective=moves.s_effective,
        retransmit=moves.case is RpmCase.RETRANSMIT,
    )

    composite: frozenset = frozenset()
    for qi in pairs:
        c = picked[qi].constituents
        assert composite.isdisjoint(c), "co-scheduled packets share constituents"
        composite = composite | c

    # everyone in S physically holds the coded slot, whatever happens next
    for i in s:
        state.bases[i].insert(composite)

    for qi, i in moves.decoded:
        tok = state.find_token(qi, i, picked[qi].pid)
        state.remove_token(tok)
        state.decoded[i].add(tok.native)
        state.bases[i].insert(frozenset([tok.native]))
        plan.decoded.append((i, tok.native))
        plan.token_moves.append((tok.native, (qi, i), None))

    pid = state.fresh_pid() if moves.merged else None
    for qi, target in moves.routes:
        p = picked[qi]
        if target is None:
            state.remove_packet(p)
            plan.real_moves.append((p.pid, qi, None))
        else:
            assert validate_cc(target, state.n_users)
            _relocate(state, plan, qi, p, s, target, p.pid if pid is None else pid)
    if moves.merged:
        target = moves.routes[0][1]
        state.append_packet(RealPacket(pid, composite, target))
        plan.real_moves.append((pid, None, target))
        plan.merged = (pid, target)
    return plan


def _relocate(state, plan, qi, p, s, target, holder):
    """Take head p out of qi and carry the tokens of its destinations outside
    s to target, where packet `holder` holds them: p itself, re-enqueued, or
    the fresh composite p merged into."""
    state.remove_packet(p)
    if holder == p.pid:
        p.location = target
        state.append_packet(p)
        plan.real_moves.append((p.pid, qi, target))
    else:
        plan.real_moves.append((p.pid, qi, None))
    for i in qi.destinations - s:
        tok = state.find_token(qi, i, p.pid)
        state.remove_token(tok)
        tok.location = target
        tok.packet_id = holder
        state.append_token(tok)
        plan.token_moves.append((tok.native, (qi, i), (target, i)))
