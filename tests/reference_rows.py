"""Reference action tables for the hand-built three-user scheme, the
runner that checks the movement rules against them row by row, the
token-level max-weight selection that ``sim._select`` is compared with, and
``synthesize_state``, which builds the audited states those checks run on.

Imported by ``test_movement.py``, ``test_acceptance.py``,
``test_scheduler.py`` and ``test_sim.py``.
"""

from itertools import product
from typing import Optional

from becsim.coding import ControlCatalog, ControlSpec
from becsim.core import (
    NetworkState,
    QueueIndex,
    RealPacket,
    Token,
    UserSet,
    audit_state,
    validate_cc,
)
from becsim.movement import ReceptionOutcome, apply_rpm
from becsim.scheduler import DELIVERED, TransitionTable

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
