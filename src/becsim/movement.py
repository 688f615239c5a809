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

Every head packet has one of four fates: held, delivered, relocated to a
queue with a larger listener set, or merged into a higher-level composite;
one helper, ``_relocate``, performs the last two.  Every decoding event
removes exactly one pending token.  Auditing the state is the caller's job.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from itertools import product
from typing import Optional, Sequence

from .core import (
    EMPTY,
    NetworkState,
    QueueIndex,
    RealPacket,
    Token,
    UserSet,
    audit_state,
    validate_cc,
)
from .coding import ControlSpec, destinations_of, validate_bcr


class RpmCase(Enum):
    RETRANSMIT = "1"
    ALL_SERVED = "2.1"
    ADVANCE = "2.2.1"
    MERGE = "2.2.2A"
    SHRINK = "2.2.2B"


@dataclass(frozen=True)
class ReceptionOutcome:
    received: UserSet


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


def tilde_l(spec: ControlSpec) -> UserSet:
    """Users listed in at least nu-1 of the listener sets.

    For a single pair the threshold is vacuous; every user qualifies.  The
    result is only ever intersected with a reception set, so the 16-user
    universe stands in for "everyone".
    """
    pairs = spec.sorted_pairs
    if len(pairs) == 1:
        return UserSet.full(16)
    counts: dict[int, int] = {}
    for qi in pairs:
        for u in qi.listeners:
            counts[u] = counts.get(u, 0) + 1
    need = len(pairs) - 1
    return UserSet.from_iterable(u for u, c in counts.items() if c >= need)


def overhead_of(packet: RealPacket) -> int:
    """Number of packet IDs a receiver must track to use this composite."""
    return len(packet.constituents)


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


def apply_rpm(
    state: NetworkState,
    spec: ControlSpec,
    chosen: Optional[Sequence[RealPacket]],
    outcome: ReceptionOutcome,
) -> MovementPlan:
    """Mutate state according to the movement rules; return what happened.

    chosen lists one packet per pair in sorted-pair order; None takes the
    heads.
    """
    assert validate_bcr(spec)
    pairs = spec.sorted_pairs
    picked = _resolve_chosen(state, pairs, chosen)
    s = outcome.received
    if not s.issubset(UserSet.full(state.n_users)):
        raise ValueError("reception set mentions unknown users")
    plan = MovementPlan(s_effective=s)

    composite: frozenset = frozenset()
    for qi in pairs:
        c = picked[qi].constituents
        assert composite.isdisjoint(c), "co-scheduled packets share constituents"
        composite = composite | c

    # everyone in S physically holds the coded slot, whatever happens next
    for i in s:
        state.bases[i].insert(composite)

    if not s:
        plan.case = RpmCase.RETRANSMIT
        plan.retransmit = True
        return plan

    # each destination that received cancels the foreign constituents and
    # keeps its own pending native
    for qi in pairs:
        p = picked[qi]
        for i in qi.destinations & s:
            tok = state.find_token(qi, i, p.pid)
            state.remove_token(tok)
            state.decoded[i].add(tok.native)
            state.bases[i].insert(frozenset([tok.native]))
            plan.decoded.append((i, tok.native))
            plan.token_moves.append((tok.native, (qi, i), None))

    union_d = destinations_of(spec)
    if union_d.issubset(s):
        plan.case = RpmCase.ALL_SERVED
        for qi in pairs:
            p = picked[qi]
            state.remove_packet(p)
            plan.real_moves.append((p.pid, qi, None))
        return plan

    involved = spec.involved
    if not (s - involved):
        plan.case = RpmCase.ADVANCE
        _advance(state, spec, picked, s, plan)
        return plan

    cut = len(spec.common_listeners | s | (union_d - s))
    widest = max(qi.level for qi in pairs)
    if cut > widest:
        plan.case = RpmCase.MERGE
        _merge(state, spec, picked, s, plan, composite)
        return plan

    plan.case = RpmCase.SHRINK
    s2 = s & involved
    plan.s_effective = s2
    if not s2:
        return plan  # only bystanders heard it; queue state already optimal
    # shrinking S cannot re-enter the other branches
    assert not union_d.issubset(s2)
    _advance(state, spec, picked, s2, plan)
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


def _advance(state, spec, picked, s, plan):
    s_tilde = s & tilde_l(spec)
    for qi in spec.sorted_pairs:
        p = picked[qi]
        remaining = qi.destinations - s
        if not remaining:
            state.remove_packet(p)
            plan.real_moves.append((p.pid, qi, None))
            continue
        target = QueueIndex(qi.listeners | (qi.destinations & s) | s_tilde, remaining)
        if target == qi:
            continue  # unchanged; keeps its position in the queue
        assert validate_cc(target, state.n_users)
        assert (target.level, target.sublevel) > (qi.level, qi.sublevel)
        _relocate(state, plan, qi, p, s, target, p.pid)


def _merge(state, spec, picked, s, plan, composite):
    pairs = spec.sorted_pairs
    target = QueueIndex(spec.common_listeners | s, destinations_of(spec) - s)
    assert validate_cc(target, state.n_users)
    assert target.level > max(qi.level for qi in pairs)

    if len(pairs) == 1:
        p = picked[pairs[0]]
        _relocate(state, plan, pairs[0], p, s, target, p.pid)
        return

    pid = state.fresh_pid()
    for qi in pairs:
        _relocate(state, plan, qi, picked[qi], s, target, pid)
    state.append_packet(RealPacket(pid, composite, target))
    plan.real_moves.append((pid, None, target))
    plan.merged = (pid, target)


def synthesize_state(n_users: int, entries) -> NetworkState:
    """Build a consistent state holding one packet per (listeners,
    destinations[, extra]) entry.

    Each packet carries one fresh pending native per destination, plus
    `extra` already-delivered natives to model composites with history.
    Listener and destination knowledge is seeded so the deep audit passes.
    """
    state = NetworkState(n_users)
    for entry in entries:
        l, d, *rest = entry
        extra = rest[0] if rest else 0
        qi = QueueIndex(UserSet.from_iterable(l), UserSet.from_iterable(d))
        assert validate_cc(qi, n_users)
        pending = {}
        cons = set()
        for i in qi.destinations:
            n = state.fresh_native(i)
            pending[i] = n
            cons.add(n)
        pool = list(qi.listeners) or list(qi.destinations)
        for t in range(extra):
            owner = pool[t % len(pool)]
            n = state.fresh_native(owner)
            state.decoded[owner].add(n)
            state.bases[owner].insert(frozenset([n]))
            cons.add(n)
        p = RealPacket(state.fresh_pid(), frozenset(cons), qi)
        state.append_packet(p)
        for i, n in pending.items():
            state.append_token(Token(n, p.pid, qi))
        vec = frozenset(cons)
        for i in qi.listeners:
            state.bases[i].insert(vec)
        for i in qi.destinations:
            for n in cons:
                if n != pending[i]:
                    state.bases[i].insert(frozenset([n]))
    return state


# --- reference action tables for the three-user scheme ---------------------
#
# Seven transmitted combinations, grouped into the five scheduling phases of
# the hand-built three-user scheme.  Users are (i, j, k) = (0, 1, 2); each
# fixture lists the queues whose heads are coded together.  Expected rows map
# a feedback triple (R = received, E = erased, in user order) to
#   (branch label, users that decode, per-packet action, merge target).
# Actions: "X" leaves the network, "S" stays put, "M" absorbed into a merged
# composite, (L, D) moved to that queue.

_FIXTURES = {
    1: [((), (0,))],
    2: [((1,), (0,)), ((0,), (1,))],
    3: [((1, 2), (0,)), ((0,), (1, 2))],
    4: [((0,), (1, 2))],
    5: [((1,), (0,)), ((0, 2), (1,))],
    6: [((1,), (0,))],
    7: [((1, 2), (0,)), ((0, 2), (1,)), ((0, 1), (2,))],
}

PHASE_TABLES = {1: (1,), 2: (2,), 3: (3, 4), 4: (5, 6), 5: (7,)}

_EXPECTED = {
    1: {
        "RRR": ("2.1", (0,), ("X",), None),
        "RRE": ("2.1", (0,), ("X",), None),
        "RER": ("2.1", (0,), ("X",), None),
        "REE": ("2.1", (0,), ("X",), None),
        "ERR": ("2.2.2A", (), (((1, 2), (0,)),), None),
        "ERE": ("2.2.2A", (), (((1,), (0,)),), None),
        "EER": ("2.2.2A", (), (((2,), (0,)),), None),
        "EEE": ("1", (), ("S",), None),
    },
    2: {
        "RRR": ("2.1", (0, 1), ("X", "X"), None),
        "RRE": ("2.1", (0, 1), ("X", "X"), None),
        "RER": ("2.2.2A", (0,), ("M", "M"), ((0, 2), (1,))),
        "REE": ("2.2.1", (0,), ("X", "S"), None),
        "ERR": ("2.2.2A", (1,), ("M", "M"), ((1, 2), (0,))),
        "ERE": ("2.2.1", (1,), ("S", "X"), None),
        "EER": ("2.2.2A", (), ("M", "M"), ((2,), (0, 1))),
        "EEE": ("1", (), ("S", "S"), None),
    },
    3: {
        "RRR": ("2.1", (0, 1, 2), ("X", "X"), None),
        "RRE": ("2.2.1", (0, 1), ("X", ((0, 1), (2,))), None),
        "RER": ("2.2.1", (0, 2), ("X", ((0, 2), (1,))), None),
        "REE": ("2.2.1", (0,), ("X", "S"), None),
        "ERR": ("2.2.1", (1, 2), ("S", "X"), None),
        "ERE": ("2.2.1", (1,), ("S", ((0, 1), (2,))), None),
        "EER": ("2.2.1", (2,), ("S", ((0, 2), (1,))), None),
        "EEE": ("1", (), ("S", "S"), None),
    },
    4: {
        "RRR": ("2.1", (1, 2), ("X",), None),
        "RRE": ("2.2.1", (1,), (((0, 1), (2,)),), None),
        "RER": ("2.2.1", (2,), (((0, 2), (1,)),), None),
        "REE": ("2.2.1", (), ("S",), None),
        "ERR": ("2.1", (1, 2), ("X",), None),
        "ERE": ("2.2.1", (1,), (((0, 1), (2,)),), None),
        "EER": ("2.2.1", (2,), (((0, 2), (1,)),), None),
        "EEE": ("1", (), ("S",), None),
    },
    5: {
        "RRR": ("2.1", (0, 1), ("X", "X"), None),
        "RRE": ("2.1", (0, 1), ("X", "X"), None),
        "RER": ("2.2.1", (0,), ("X", "S"), None),
        "REE": ("2.2.1", (0,), ("X", "S"), None),
        "ERR": ("2.2.1", (1,), (((1, 2), (0,)), "X"), None),
        "ERE": ("2.2.1", (1,), ("S", "X"), None),
        "EER": ("2.2.1", (), (((1, 2), (0,)), "S"), None),
        "EEE": ("1", (), ("S", "S"), None),
    },
    6: {
        "RRR": ("2.1", (0,), ("X",), None),
        "RRE": ("2.1", (0,), ("X",), None),
        "RER": ("2.1", (0,), ("X",), None),
        "REE": ("2.1", (0,), ("X",), None),
        "ERR": ("2.2.2A", (), (((1, 2), (0,)),), None),
        "ERE": ("2.2.1", (), ("S",), None),
        "EER": ("2.2.2A", (), (((1, 2), (0,)),), None),
        "EEE": ("1", (), ("S",), None),
    },
    7: {
        "RRR": ("2.1", (0, 1, 2), ("X", "X", "X"), None),
        "RRE": ("2.2.1", (0, 1), ("X", "X", "S"), None),
        "RER": ("2.2.1", (0, 2), ("X", "S", "X"), None),
        "REE": ("2.2.1", (0,), ("X", "S", "S"), None),
        "ERR": ("2.2.1", (1, 2), ("S", "X", "X"), None),
        "ERE": ("2.2.1", (1,), ("S", "X", "S"), None),
        "EER": ("2.2.1", (2,), ("S", "S", "X"), None),
        "EEE": ("1", (), ("S", "S", "S"), None),
    },
}

FEEDBACK_TRIPLES = tuple("".join(t) for t in product("RE", repeat=3))


def run_reference_row(table: int, triple: str) -> dict:
    """Apply the rules to one reference scenario and compare with the
    expected action row.  Returns a record with an ok flag and details."""
    fixture = _FIXTURES[table]
    expected_case, exp_decoded, exp_actions, exp_merge = _EXPECTED[table][triple]
    state = synthesize_state(3, fixture)
    spec = ControlSpec.of(*fixture)
    sources = [
        QueueIndex(UserSet.from_iterable(l), UserSet.from_iterable(d))
        for l, d in fixture
    ]
    pids = [state.queue(qi)[0].pid for qi in sources]
    s = UserSet.from_iterable(u for u, f in enumerate(triple) if f == "R")
    plan = apply_rpm(state, spec, None, ReceptionOutcome(s))

    problems = []
    if plan.case.value != expected_case:
        problems.append(f"case {plan.case.value} != {expected_case}")
    if tuple(sorted(u for u, _ in plan.decoded)) != exp_decoded:
        problems.append(f"decoded {sorted(plan.decoded)} != users {exp_decoded}")
    if (plan.merged is not None) != (exp_merge is not None):
        problems.append("merge presence mismatch")
    if exp_merge is not None and plan.merged is not None:
        want = QueueIndex(
            UserSet.from_iterable(exp_merge[0]), UserSet.from_iterable(exp_merge[1])
        )
        if plan.merged[1] != want:
            problems.append(f"merge target {plan.merged[1]!r} != {want!r}")
    for pid, src, action in zip(pids, sources, exp_actions):
        entries = [m for m in plan.real_moves if m[0] == pid]
        if action == "S":
            if entries:
                problems.append(f"packet {pid} moved, expected stay")
        elif action == "X":
            if entries != [(pid, src, None)] or plan.merged is not None:
                problems.append(f"packet {pid} did not simply leave")
        elif action == "M":
            if entries != [(pid, src, None)] or plan.merged is None:
                problems.append(f"packet {pid} was not merged away")
        else:
            want = QueueIndex(
                UserSet.from_iterable(action[0]), UserSet.from_iterable(action[1])
            )
            if entries != [(pid, src, want)]:
                problems.append(f"packet {pid} moves {entries}, wanted -> {want!r}")
    if plan.retransmit != (expected_case == "1"):
        problems.append("retransmit flag mismatch")
    leftover = audit_state(state, deep=True)
    if leftover:
        problems.append(f"state audit failed: {leftover}")
    return {
        "table": table,
        "triple": triple,
        "case": plan.case.value,
        "expected_case": expected_case,
        "ok": not problems,
        "problems": problems,
    }


def conformance_tables(phase: int, triple) -> list[dict]:
    """Run every reference scenario of the given phase for one feedback
    triple; one comparison record per scenario."""
    key = triple if isinstance(triple, str) else "".join(triple)
    return [run_reference_row(table, key) for table in PHASE_TABLES[phase]]
