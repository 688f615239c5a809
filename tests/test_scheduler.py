"""Transition-table derivation and max-weight selection tests.

Symbolic expectations are written with exact rationals so equality is
strict; empirical convergence is checked against binomial noise bounds.
"""

import math
import os
import pathlib
import random
import subprocess
import sys
from fractions import Fraction as F

import pytest

from becsim import scheduler, sim
from becsim.channel import ArrivalModel, ErasureModel, make_rng
from becsim.coding import ControlSpec, enumerate_controls
from becsim.core import NetworkState, QueueIndex, UserSet
from becsim.movement import ReceptionOutcome, apply_rpm
from becsim.scheduler import DELIVERED, TransitionTable, derive_transitions
from reference_rows import eligible, reward, select_control, synthesize_state


def U(*xs):
    return UserSet.of(*xs)


def QI(l, d):
    return QueueIndex(UserSet.from_iterable(l), UserSet.from_iterable(d))


# an asymmetric two-user reception pmf with exact rational masses
JOINT2 = ErasureModel.joint(
    2, {(): F(1, 10), (0,): F(1, 5), (1,): F(3, 10), (0, 1): F(2, 5)}
)


# Q[{}->0] and Q[{}->1]: neither pair's listeners hear the other's destination
NON_COMBINABLE = ControlSpec.of(((), (0,)), ((), (1,)))


def rational_joint(n_users, seed):
    rng = random.Random(seed)
    weights = [rng.randrange(1, 30) for _ in range(1 << n_users)]
    total = sum(weights)
    return ErasureModel.joint(
        n_users, {UserSet(m): F(w, total) for m, w in enumerate(weights)}
    )


class TestDeriveTransitions:
    def test_paired_level3_example(self):
        model = rational_joint(3, "derive-l3")
        spec = ControlSpec.of(((2,), (0, 1)), ((0, 1), (2,)))
        edges = derive_transitions(spec, model)
        src = QI((2,), (0, 1))
        node = (src, 0)
        assert edges[node] == {
            DELIVERED: model.p_gs(U(), U(0)),
            (QI((1, 2), (0,)), 0): model.p_gs(U(0), U(1)),
            node: model.p_gs(U(0, 1), U()),
        }
        # the single-destination leg can only finish or stay
        leg = (QI((0, 1), (2,)), 2)
        assert edges[leg] == {
            DELIVERED: model.p_gs(U(), U(2)),
            leg: model.p_gs(U(2), U()),
        }

    def test_two_user_catalog_symbolic(self):
        cat = enumerate_controls(2)
        table = TransitionTable.for_catalog(cat, JOINT2)
        m = JOINT2
        q0, q1 = QI((), (0,)), QI((), (1,))
        v0, v1 = QI((1,), (0,)), QI((0,), (1,))
        expected = {
            ControlSpec.of(((), (0,))): {
                (q0, 0): {
                    DELIVERED: m.p_gs(U(), U(0)),
                    (v0, 0): m.p_gs(U(0), U(1)),
                    (q0, 0): m.p_gs(U(0, 1), U()),
                }
            },
            ControlSpec.of(((), (1,))): {
                (q1, 1): {
                    DELIVERED: m.p_gs(U(), U(1)),
                    (v1, 1): m.p_gs(U(1), U(0)),
                    (q1, 1): m.p_gs(U(0, 1), U()),
                }
            },
            ControlSpec.of(((1,), (0,))): {
                (v0, 0): {
                    DELIVERED: m.p_gs(U(), U(0)),
                    (v0, 0): m.p_gs(U(0), U()),
                }
            },
            ControlSpec.of(((0,), (1,))): {
                (v1, 1): {
                    DELIVERED: m.p_gs(U(), U(1)),
                    (v1, 1): m.p_gs(U(1), U()),
                }
            },
            ControlSpec.of(((1,), (0,)), ((0,), (1,))): {
                (v0, 0): {
                    DELIVERED: m.p_gs(U(), U(0)),
                    (v0, 0): m.p_gs(U(0), U()),
                },
                (v1, 1): {
                    DELIVERED: m.p_gs(U(), U(1)),
                    (v1, 1): m.p_gs(U(1), U()),
                },
            },
        }
        assert dict(table.entries) == expected

    def test_exactly_row_stochastic(self):
        model = rational_joint(3, "rows")
        for spec in enumerate_controls(3):
            for node, targets in derive_transitions(spec, model).items():
                assert sum(targets.values()) == 1

    def test_memo_changes_nothing(self, monkeypatch):
        model = rational_joint(3, "memo")
        catalog = enumerate_controls(3)
        warm = [derive_transitions(spec, model) for spec in catalog]
        monkeypatch.setattr(scheduler, "_PLAN_CACHE", {})
        cold = [derive_transitions(spec, model) for spec in catalog]
        assert cold == warm
        assert [derive_transitions(spec, model) for spec in catalog] == warm

    def test_unknown_user_fails(self):
        # Q[2->0] names user 2, which a two-user model does not have
        spec = ControlSpec.of(((2,), (0,)))
        with pytest.raises(ValueError):
            derive_transitions(spec, ErasureModel.iid(2, F(1, 2)))

    def test_non_combinable_control_fails(self):
        # user 0's packet is not heard by the other pair's listeners
        with pytest.raises(ValueError, match="not combinable"):
            derive_transitions(NON_COMBINABLE, ErasureModel.iid(2, F(1, 2)))

    def test_certain_erasure_self_loops(self):
        model = ErasureModel.iid(3, 1)
        for spec in enumerate_controls(3):
            for node, targets in derive_transitions(spec, model).items():
                assert targets == {node: 1}

    def test_golden_two_user_table(self):
        cat = enumerate_controls(2)
        table = TransitionTable.for_catalog(cat, ErasureModel.iid(2, F(1, 2)))
        golden = pathlib.Path(__file__).parent / "golden" / "transitions_n2_iid_half.json"
        assert table.to_json() + "\n" == golden.read_text()

    def test_empirical_frequencies_match(self):
        model = ErasureModel.iid(3, 0.4)
        spec = ControlSpec.of(((2,), (0, 1)), ((0, 1), (2,)))
        edges = derive_transitions(spec, model)
        entries = [(tuple(q.listeners), tuple(q.destinations)) for q in spec.sorted_pairs]
        rng = make_rng(2024, "erasures")
        trials = 20_000
        counts = {node: {} for node in edges}
        for _ in range(trials):
            state = synthesize_state(3, entries)
            native_node = {}
            for qi in spec.sorted_pairs:
                pkt = state.queue(qi)[0]
                for i in qi.destinations:
                    native_node[state.find_token(qi, i, pkt.pid).native] = (qi, i)
            plan = apply_rpm(state, spec, None, ReceptionOutcome(model.sample(rng)))
            landed = {}
            for native, _src, dst in plan.token_moves:
                landed[native_node[native]] = DELIVERED if dst is None else dst
            for node in edges:
                t = landed.get(node, node)
                counts[node][t] = counts[node].get(t, 0) + 1
        for node, targets in edges.items():
            for t, p in targets.items():
                freq = counts[node].get(t, 0) / trials
                sigma = math.sqrt(p * (1 - p) / trials)
                assert abs(freq - p) < 4 * sigma + 1e-9, (node, t, freq, p)


class TestSelectControl:
    def setup_method(self):
        self.cat = enumerate_controls(2)
        self.half = TransitionTable.for_catalog(self.cat, ErasureModel.iid(2, F(1, 2)))

    def test_idle_when_empty(self):
        from becsim.core import NetworkState

        assert select_control(NetworkState(2), self.cat, self.half) is None

    def test_single_backlog_reward(self):
        state = synthesize_state(2, [((), (0,))] * 5)
        spec = select_control(state, self.cat, self.half)
        assert spec == ControlSpec.of(((), (0,)))
        assert reward(state, spec, self.half.edges(spec)) == F(15, 4)

    def test_eligibility_gates_choice(self):
        state = synthesize_state(2, [((1,), (0,))])
        assert not eligible(state, ControlSpec.of(((), (0,))))
        assert select_control(state, self.cat, self.half) == ControlSpec.of(((1,), (0,)))

    def test_tie_breaks_by_catalog_order(self):
        state = synthesize_state(2, [((), (0,)), ((), (1,))])
        assert select_control(state, self.cat, self.half) == ControlSpec.of(((), (0,)))

    def test_scaling_counters_keeps_argmax(self):
        base = [((), (0,))] * 2 + [((), (1,))]
        a = select_control(synthesize_state(2, base), self.cat, self.half)
        b = select_control(synthesize_state(2, base * 3), self.cat, self.half)
        assert a == b == ControlSpec.of(((), (0,)))

    def test_deterministic(self):
        state = synthesize_state(2, [((), (0,)), ((1,), (0,)), ((0,), (1,))])
        picks = {select_control(state, self.cat, self.half) for _ in range(5)}
        assert len(picks) == 1

    def test_transmits_even_with_zero_reward(self):
        blocked = TransitionTable.for_catalog(self.cat, ErasureModel.iid(2, 1))
        state = synthesize_state(2, [((), (0,))])
        spec = select_control(state, self.cat, blocked)
        assert spec == ControlSpec.of(((), (0,)))
        assert reward(state, spec, blocked.edges(spec)) == 0

    def test_nodes_cover_all_pair_destinations(self):
        spec = ControlSpec.of(((2,), (0, 1)), ((0, 1), (2,)))
        edges = derive_transitions(spec, ErasureModel.iid(3, F(1, 2)))
        assert set(edges) == {
            (QI((2,), (0, 1)), 0),
            (QI((2,), (0, 1)), 1),
            (QI((0, 1), (2,)), 2),
        }


class TestBadControls:
    def test_apply_rpm_rejects_unknown_user(self):
        spec = ControlSpec.of(((2,), (0,)))
        with pytest.raises(ValueError, match="queue criteria for 2 users"):
            apply_rpm(NetworkState(2), spec, None, ReceptionOutcome(U(0)))

    def test_apply_rpm_rejects_non_combinable(self):
        state = synthesize_state(2, [((), (0,)), ((), (1,))])
        with pytest.raises(ValueError, match="not combinable"):
            apply_rpm(state, NON_COMBINABLE, None, ReceptionOutcome(U(0)))

    def test_rejected_without_asserts(self):
        # python -O strips assert statements; the checks must not be asserts
        code = """
from becsim.channel import ErasureModel
from becsim.coding import ControlSpec
from becsim.core import NetworkState, UserSet
from becsim.movement import ReceptionOutcome, apply_rpm
from becsim.scheduler import derive_transitions

print(__debug__)
unknown = ControlSpec.of(((2,), (0,)))
non_combinable = ControlSpec.of(((), (0,)), ((), (1,)))
state = NetworkState(2)
state.arrival(0)
state.arrival(1)
model = ErasureModel.iid(2, 0.5)
for call in (
    lambda: derive_transitions(unknown, model),
    lambda: derive_transitions(non_combinable, model),
    lambda: apply_rpm(NetworkState(2), unknown, None, ReceptionOutcome(UserSet.of(0))),
    lambda: apply_rpm(state, non_combinable, None, ReceptionOutcome(UserSet.of(0))),
):
    try:
        call()
        print("accepted")
    except ValueError as err:
        print("ValueError", err)
"""
        src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-O", "-c", code],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
            check=True,
        ).stdout.splitlines()
        assert out[0] == "False"
        ends = ["for 2 users", "not combinable"] * 2
        assert len(out) == 5, out
        for line, end in zip(out[1:], ends):
            assert line.startswith("ValueError") and line.endswith(end), out

    def test_table_row_not_summing_to_one_rejected(self):
        # a raise, not an assert, so python -O keeps the check
        model = ErasureModel.iid(2, F(1, 2))
        table = TransitionTable.for_catalog(enumerate_controls(2), model)
        spec = ControlSpec.of(((1,), (0,)), ((0,), (1,)))
        node = (QI((1,), (0,)), 0)
        entries = dict(table.entries)
        entries[spec] = {**entries[spec], node: {DELIVERED: F(9, 10)}}
        with pytest.raises(ValueError) as err:
            TransitionTable(entries).validate()
        assert str(err.value) == f"{spec!r} row {node!r} sums to 9/10"


class TestPlanMemo:
    def test_each_control_and_reception_set_planned_once(self, monkeypatch):
        calls = []
        plan_moves = scheduler.plan_moves

        def counted(spec, s):
            calls.append((spec, s.mask))
            return plan_moves(spec, s)

        # every binding of the planner outside movement, which apply_rpm uses
        for module in (scheduler, sim):
            if hasattr(module, "plan_moves"):
                monkeypatch.setattr(module, "plan_moves", counted)
        monkeypatch.setattr(scheduler, "_PLAN_CACHE", {})
        monkeypatch.setattr(sim, "_LAST_COMPILED", [None, None])
        config = sim.SimConfig(
            n_users=3,
            horizon=1,
            erasure=ErasureModel.iid(3, F(1, 4)),
            arrivals=ArrivalModel.bernoulli([F(1, 10)] * 3),
            engine="counts",
            policy="maxweight",
        )
        sim.compile_catalog(config)
        catalog = enumerate_controls(3)
        for model in (ErasureModel.iid(3, F(1, 4)), rational_joint(3, "memo-count")):
            TransitionTable.for_catalog(catalog, model)
        # 31 controls times 8 reception sets, each planned exactly once
        assert len(calls) == len(set(calls)) == len(catalog) * 8 == 248
