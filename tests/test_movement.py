"""Movement-rule tests: the 56 reference action rows for three users, the
two multi-pair walkthrough scenarios, randomized invariant checks, and the
planner, the delta tables and the transition tables checked against plans
carried out on a state."""

import hashlib
import random
from fractions import Fraction as F

import pytest

from becsim.channel import ErasureModel
from becsim.coding import FULL, TABLE8, ControlSpec, enumerate_controls
from becsim.core import (
    NativePacketId,
    QueueIndex,
    UserSet,
    audit_state,
    validate_cc,
)
from becsim.movement import (
    MovementPlan,
    ReceptionOutcome,
    RpmCase,
    apply_rpm,
    plan_moves,
)
from becsim.scheduler import (
    DELIVERED,
    _Delta,
    _queue_space,
    deltas_of,
    derive_transitions,
)
from reference_rows import (
    FEEDBACK_TRIPLES,
    PHASE_TABLES,
    conformance_tables,
    run_reference_row,
    synthesize_state,
)


def U(*xs):
    return UserSet.of(*xs)


def QI(l, d):
    return QueueIndex(UserSet.from_iterable(l), UserSet.from_iterable(d))


def S(*xs):
    return ReceptionOutcome(UserSet.of(*xs))


EX2_PAIRS = [((1, 2, 3, 5), (0,)), ((0, 2, 4), (1, 3)), ((0, 1, 3, 5), (2,))]


class TestTildeL:
    def test_threshold_two_of_three(self):
        lt = ControlSpec.of(*EX2_PAIRS).tilde_l
        assert 4 not in lt  # listed once only
        assert 1 in lt
        assert lt & UserSet.full(8) == U(0, 1, 2, 3, 5)

    def test_single_pair_vacuous(self):
        lt = ControlSpec.of(((1, 2), (0,))).tilde_l
        assert UserSet.full(16).issubset(lt)

    def test_level2_swap(self):
        assert ControlSpec.of(((0,), (1,)), ((1,), (0,))).tilde_l == U(0, 1)


class TestReferenceRows:
    @pytest.mark.parametrize("phase", sorted(PHASE_TABLES))
    @pytest.mark.parametrize("triple", FEEDBACK_TRIPLES)
    def test_row(self, phase, triple):
        for record in conformance_tables(phase, triple):
            assert record["ok"], record

    def test_total_row_count(self):
        total = sum(len(PHASE_TABLES[p]) for p in PHASE_TABLES) * len(FEEDBACK_TRIPLES)
        assert total == 56

    def test_mismatch_is_reported(self):
        rec = run_reference_row(2, "RER")
        assert rec["table"] == 2 and rec["triple"] == "RER"
        assert rec["ok"] and rec["problems"] == []


class TestTwoPairWalkthrough:
    """Level-3 pairing of a two-destination packet with its reverse."""

    PAIRS = [((2,), (0, 1)), ((0, 1), (2,))]

    def test_single_receiver_advances_high_sublevel(self):
        state = synthesize_state(3, self.PAIRS)
        spec = ControlSpec.of(*self.PAIRS)
        a = state.queue(QI((2,), (0, 1)))[0]
        b = state.queue(QI((0, 1), (2,)))[0]
        plan = apply_rpm(state, spec, None, S(1))
        assert plan.case is RpmCase.ADVANCE
        assert plan.decoded == [(1, NativePacketId(1, 0))]
        assert plan.real_moves == [(a.pid, QI((2,), (0, 1)), QI((1, 2), (0,)))]
        assert plan.token_moves == [
            (NativePacketId(1, 0), (QI((2,), (0, 1)), 1), None),
            (NativePacketId(0, 0), (QI((2,), (0, 1)), 0), (QI((1, 2), (0,)), 0)),
        ]
        assert b.location == QI((0, 1), (2,))
        # the move lands in the same level but at a strictly higher sublevel
        assert a.location.level == 3 and a.location.sublevel == 2
        assert audit_state(state, deep=True) == []


class TestThreePairWalkthrough:
    """Eight-user, three-pair control with a two-destination middle pair."""

    def fresh(self):
        state = synthesize_state(8, EX2_PAIRS)
        spec = ControlSpec.of(*EX2_PAIRS)
        qis = [QI(l, d) for l, d in EX2_PAIRS]
        pids = [state.queue(qi)[0].pid for qi in qis]
        return state, spec, qis, pids

    def test_involved_receivers_advance(self):
        state, spec, qis, pids = self.fresh()
        plan = apply_rpm(state, spec, None, S(1, 4, 5))
        assert plan.case is RpmCase.ADVANCE
        assert plan.decoded == [(1, NativePacketId(1, 0))]
        assert plan.real_moves == [
            (pids[1], qis[1], QI((0, 1, 2, 4, 5), (3,)))
        ]
        assert audit_state(state, deep=True) == []

    def test_outsiders_force_merge(self):
        state, spec, qis, pids = self.fresh()
        plan = apply_rpm(state, spec, None, S(6, 7))
        assert plan.case is RpmCase.MERGE
        assert plan.decoded == []
        target = QI((6, 7), (0, 1, 2, 3))
        assert plan.merged is not None and plan.merged[1] == target
        merged = state.queue(target)[0]
        assert merged.constituents == frozenset(
            NativePacketId(i, 0) for i in range(4)
        )
        # all four pending tokens now ride the merged composite
        assert {t.native.owner for t in
                (state.vqueue(target, i)[0] for i in range(4))} == {0, 1, 2, 3}
        for qi in qis:
            assert state.queue(qi) == []
        assert audit_state(state, deep=True) == []

    def test_lone_outsider_changes_nothing(self):
        state, spec, qis, pids = self.fresh()
        before = {qi: [p.pid for p in state.queue(qi)] for qi in qis}
        plan = apply_rpm(state, spec, None, S(6))
        assert plan.case is RpmCase.SHRINK
        assert plan.s_effective == U()
        assert plan.real_moves == [] and plan.decoded == []
        assert {qi: [p.pid for p in state.queue(qi)] for qi in qis} == before
        assert audit_state(state, deep=True) == []

    def test_mixed_reception_shrinks_then_advances(self):
        state, spec, qis, pids = self.fresh()
        plan = apply_rpm(state, spec, None, S(1, 6))
        assert plan.case is RpmCase.SHRINK
        assert plan.s_effective == U(1)
        assert plan.decoded == [(1, NativePacketId(1, 0))]
        assert plan.real_moves == [
            (pids[1], qis[1], QI((0, 1, 2, 4), (3,)))
        ]
        assert audit_state(state, deep=True) == []


class TestEdgeBehavior:
    def test_all_erased_retransmits(self):
        state = synthesize_state(3, [((), (0,))])
        plan = apply_rpm(state, ControlSpec.of(((), (0,))), None, S())
        assert plan.case is RpmCase.RETRANSMIT and plan.retransmit
        assert plan.real_moves == [] and plan.decoded == []
        assert state.q_hat() == 1

    def test_fifo_head_is_default(self):
        state = synthesize_state(3, [((), (0,)), ((), (0,))])
        qi = QI((), (0,))
        first, second = state.queue(qi)
        plan = apply_rpm(state, ControlSpec.of(((), (0,))), None, S(0))
        assert plan.real_moves == [(first.pid, qi, None)]
        assert state.queue(qi) == [second]
        assert audit_state(state, deep=True) == []

    def test_explicit_choice_overrides_fifo(self):
        state = synthesize_state(3, [((), (0,)), ((), (0,))])
        qi = QI((), (0,))
        first, second = state.queue(qi)
        apply_rpm(state, ControlSpec.of(((), (0,))), [second], S(0))
        assert state.queue(qi) == [first]
        assert audit_state(state, deep=True) == []

    def test_rejects_foreign_packet(self):
        state = synthesize_state(3, [((), (0,)), ((), (1,))])
        stranger = state.queue(QI((), (1,)))[0]
        with pytest.raises(ValueError):
            apply_rpm(state, ControlSpec.of(((), (0,))), [stranger], S(0))

    def test_rejects_empty_queue(self):
        state = synthesize_state(3, [((), (0,))])
        with pytest.raises(ValueError):
            apply_rpm(state, ControlSpec.of(((), (1,))), None, S(0))

    def test_overhead_counts_constituents(self):
        state = synthesize_state(3, [((), (0,)), ((1, 2), (0,), 2)])
        native = state.queue(QI((), (0,)))[0]
        padded = state.queue(QI((1, 2), (0,)))[0]
        assert len(native.constituents) == 1
        assert len(padded.constituents) == 3
        assert audit_state(state, deep=True) == []


def random_scenario(rng, n_users, catalog):
    """A consistent state around a random control, plus clutter packets."""
    spec = rng.choice(catalog.controls)
    entries = [
        (tuple(qi.listeners), tuple(qi.destinations), rng.randrange(3))
        for qi in spec.sorted_pairs
    ]
    clutter = rng.sample(catalog.controls, k=min(3, len(catalog)))
    for extra in clutter:
        for qi in extra.sorted_pairs:
            if rng.random() < 0.5:
                entries.append(
                    (tuple(qi.listeners), tuple(qi.destinations), rng.randrange(2))
                )
    rng.shuffle(entries)
    state = synthesize_state(n_users, entries)
    s = UserSet.from_iterable(
        u for u in range(n_users) if rng.random() < 0.5
    )
    return state, spec, s


class TestInvariantPreservation:
    def test_exhaustive_three_users(self):
        catalog = enumerate_controls(3)
        full = UserSet.full(3)
        for spec in catalog:
            for mask in range(8):
                s = UserSet(mask)
                assert s.issubset(full)
                state = synthesize_state(
                    3, [(tuple(q.listeners), tuple(q.destinations)) for q in spec.sorted_pairs]
                )
                plan = apply_rpm(state, spec, None, ReceptionOutcome(s))
                assert audit_state(state, deep=True) == [], (spec, s)
                check_plan_invariants(plan, state)

    @pytest.mark.parametrize("n_users", [4, 5])
    def test_randomized_larger_networks(self, n_users):
        catalog = enumerate_controls(n_users)
        rng = random.Random(f"movement-invariants/{n_users}")
        for _ in range(150):
            state, spec, s = random_scenario(rng, n_users, catalog)
            assert audit_state(state, deep=True) == []
            tokens_before = state.v_hat()
            plan = apply_rpm(state, spec, None, ReceptionOutcome(s))
            assert audit_state(state, deep=True) == [], (spec, s)
            check_plan_invariants(plan, state)
            # tokens are destroyed only by decoding
            assert state.v_hat() == tokens_before - len(plan.decoded)


def check_plan_invariants(plan: MovementPlan, state):
    # every decode removed exactly one token
    removals = [t for t in plan.token_moves if t[2] is None]
    assert len(removals) == len(plan.decoded)
    assert {(u, n) for u, n in plan.decoded} == {
        (src[1], native) for native, src, _ in removals
    }
    for i, native in plan.decoded:
        assert native.owner == i  # users only ever decode their own flow
        assert native in state.decoded[i]
    # moves never go backwards
    for pid, src, dst in plan.real_moves:
        if src is not None and dst is not None:
            assert (dst.level, dst.sublevel) > (src.level, src.sublevel)
    if plan.case is RpmCase.MERGE and plan.merged is not None:
        merged_pid, target = plan.merged
        assert any(p.pid == merged_pid for p in state.queue(target))


def executed_moves(n_users, spec, s):
    """apply_rpm on a canonical one-packet-per-queue state, audited; returns
    its MovementPlan and the routes read back from real_moves."""
    entries = [(tuple(q.listeners), tuple(q.destinations)) for q in spec.sorted_pairs]
    state = synthesize_state(n_users, entries)
    plan = apply_rpm(state, spec, None, ReceptionOutcome(s))
    assert audit_state(state, deep=True) == [], (spec, s)
    merged_at = plan.merged[1] if plan.merged else None
    # the minted composite's own entry is no route; merged heads go to it
    routes = tuple(
        (frm, merged_at or to) for _pid, frm, to in plan.real_moves if frm is not None
    )
    return plan, routes


def executed_transitions(spec, model, pad_constituents=0):
    """The transition table of one control derived from executed state:
    per reception set, apply_rpm on a canonical state whose packets carry
    pad_constituents already-delivered natives each, with every pending
    token followed through token_moves; untouched tokens stay put."""
    nodes = [(qi, i) for qi in spec.sorted_pairs for i in qi.destinations]
    entries = [
        (tuple(qi.listeners), tuple(qi.destinations), pad_constituents)
        for qi in spec.sorted_pairs
    ]
    buckets = [{} for _ in nodes]
    for s, prob in model.pmf():
        state = synthesize_state(model.n_users, entries)
        native_node = {}
        for qi in spec.sorted_pairs:
            pid = state.queue(qi)[0].pid
            for i in qi.destinations:
                native_node[state.find_token(qi, i, pid).native] = (qi, i)
        plan = apply_rpm(state, spec, None, ReceptionOutcome(s))
        landed = {
            native_node[native]: DELIVERED if dst is None else dst
            for native, _src, dst in plan.token_moves
        }
        for node, bucket in zip(nodes, buckets):
            target = landed.get(node, node)
            bucket[target] = bucket.get(target, 0) + prob
    return dict(zip(nodes, buckets))


def reference_deltas(catalog):
    """The delta tables derived from executed state, one synthesized state
    per (control, reception set), as the compile built them before it read
    the planner."""
    n_users = catalog.n_users
    qidx = _queue_space(n_users)[1]
    out = []
    for spec in catalog:
        per_s = {}
        for mask in range(1 << n_users):
            plan, routes = executed_moves(n_users, spec, UserSet(mask))
            per_s[mask] = _Delta(
                case=plan.case.value,
                routes=tuple((qidx[frm], qidx.get(to)) for frm, to in routes),
                merged=plan.merged is not None,
                deliveries=tuple(sorted(user for user, _native in plan.decoded)),
            )
        out.append(per_s)
    return out


def plan_digest(n_users, restriction) -> str:
    rows = [
        (m.case.value, m.s_effective.mask, m.routes, m.merged, m.decoded)
        for spec in enumerate_controls(n_users, restriction)
        for m in (plan_moves(spec, UserSet(mask)) for mask in range(1 << n_users))
    ]
    return hashlib.sha256(repr(rows).encode()).hexdigest()


# sha256 of the repr of every (control, reception set)'s case, effective S,
# routes, merge flag and decoded (pair, user)s in catalog and mask order, as
# apply_rpm carried them out on synthesized states before the planner existed
PINNED_PLANS = {
    (1, FULL): "1ccc32ae9b0069f541bfd64d7e4b62706a05aaa5466277a13dd83aeb9acc3463",
    (2, FULL): "95f73107e5d740093ba2a9d143b4f7f1e5c00f0819fc51da253c68696795ce12",
    (3, FULL): "a43b5926feba468399de1d80cbccdfd007b544b3fd77fc02a848e132572af8ba",
    (4, FULL): "cd50e3290ee1f72926a2ea60e52d93098745ae2cc119244c5a5c6da839a35018",
    (4, TABLE8): "7962653511e3d4cec5864e1242a6f494acea77947b393c955bed87031678ca76",
    (5, FULL): "6796659d2fc1094d9ee3f0b6c8231f8dc609326c2c2a2575ab15388df7342860",
}

PLANNED_CATALOGS = [
    (1, FULL),
    (2, FULL),
    (3, FULL),
    (4, FULL),
    (4, TABLE8),
    pytest.param(5, FULL, marks=pytest.mark.slow),
]


class TestPlanner:
    @pytest.mark.parametrize("n_users, restriction", PLANNED_CATALOGS)
    def test_plan_matches_executed_state(self, n_users, restriction):
        for spec in enumerate_controls(n_users, restriction):
            for mask in range(1 << n_users):
                s = UserSet(mask)
                moves = plan_moves(spec, s)
                plan, routes = executed_moves(n_users, spec, s)
                where = (spec, s)
                assert moves.case is plan.case, where
                assert moves.s_effective == plan.s_effective, where
                assert moves.routes == routes, where
                assert moves.merged == (plan.merged is not None), where
                if moves.merged:
                    assert {dst for _src, dst in moves.routes} == {plan.merged[1]}
                assert [i for _qi, i in moves.decoded] == [
                    user for user, _native in plan.decoded
                ], where
                assert list(moves.decoded) == [
                    src for _native, src, dst in plan.token_moves if dst is None
                ], where

    @pytest.mark.parametrize("n_users, restriction", PLANNED_CATALOGS)
    def test_compiled_deltas_match_executed_state(self, n_users, restriction):
        catalog = enumerate_controls(n_users, restriction)
        deltas = [deltas_of(spec, n_users) for spec in catalog]
        assert deltas == reference_deltas(catalog)

    @pytest.mark.parametrize("n_users, restriction", PLANNED_CATALOGS)
    def test_plans_pinned(self, n_users, restriction):
        assert plan_digest(n_users, restriction) == PINNED_PLANS[n_users, restriction]

    def test_shrink_planned_from_sets_alone(self):
        spec = ControlSpec.of(*EX2_PAIRS)
        moves = plan_moves(spec, U(1, 6))
        assert moves.case is RpmCase.SHRINK and moves.s_effective == U(1)
        assert moves.routes == ((QI((0, 2, 4), (1, 3)), QI((0, 1, 2, 4), (3,))),)
        assert moves.decoded == ((QI((0, 2, 4), (1, 3)), 1),)
        assert not moves.merged

    @pytest.mark.parametrize("n_users, restriction", PLANNED_CATALOGS)
    def test_control_facts_and_distinct_deliveries(self, n_users, restriction):
        """The planner's control facts equal their set definitions, and a
        user decodes at most one packet per slot."""
        for spec in enumerate_controls(n_users, restriction):
            pairs = spec.pairs
            assert spec.destinations == U(*(i for qi in pairs for i in qi.destinations))
            assert spec.tilde_l & UserSet.full(n_users) == U(
                *(
                    u
                    for u in range(n_users)
                    if sum(u in qi.listeners for qi in pairs) >= len(pairs) - 1
                )
            )
            assert spec.exit_level == max(qi.level for qi in pairs)
            for delta in deltas_of(spec, n_users).values():
                assert list(delta.deliveries) == sorted(set(delta.deliveries))


# a three-user pmf with zero-mass reception sets
JOINT3_ZERO = ErasureModel.joint(
    3,
    {
        (): F(1, 8), (0,): F(1, 4), (1,): 0, (2,): F(1, 8),
        (0, 1): 0, (0, 2): F(1, 4), (1, 2): F(1, 8), (0, 1, 2): F(1, 8),
    },
)

TRANSITION_CASES = [
    (1, FULL, ErasureModel.iid(1, F(1, 4))),
    (2, FULL, ErasureModel.iid(2, F(1, 4))),
    (3, FULL, ErasureModel.iid(3, F(1, 4))),
    (3, FULL, JOINT3_ZERO),
    (4, FULL, ErasureModel.iid(4, F(1, 4))),
    (4, TABLE8, ErasureModel.iid(4, F(1, 4))),
]


class TestTransitions:
    @pytest.mark.parametrize(
        "n_users, restriction, model",
        TRANSITION_CASES,
        ids=["n1", "n2", "n3", "n3-joint-zero", "n4", "n4-table8"],
    )
    def test_transitions_match_executed_state(self, n_users, restriction, model):
        """derive_transitions lands tokens by the planner's routes; the
        reference carries each plan out on a packet state, unpadded and
        with two delivered natives per packet, and reads where the tokens
        went.  Equal tables in equal key order."""
        for spec in enumerate_controls(n_users, restriction):
            got = derive_transitions(spec, model)
            for pad in (0, 2):
                want = executed_transitions(spec, model, pad)
                assert got == want, (spec, pad)
                assert repr(got) == repr(want), (spec, pad)
