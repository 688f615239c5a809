"""Acceptance gate: nine end-to-end checks, one test per criterion.

Each test prints a PASS line (visible with -s) and the -v report gives the
per-criterion verdict.  Tolerances are pinned here and nowhere else; the
heavyweight shared runs live in module fixtures so criteria 2, 3 and 8
reuse the same audited 10^5-slot histories.
"""

import random
import time
from decimal import Decimal, localcontext
from fractions import Fraction as F
from pathlib import Path

import pytest

from becsim.channel import (
    ArrivalModel,
    ErasureModel,
    epsilon_g,
    make_rng,
    sample_reception,
)
from becsim.coding import FULL, TABLE8, ControlSpec, enumerate_controls
from becsim.core import NativePacketId, QueueIndex, UserSet, audit_state
from becsim.movement import (
    FEEDBACK_TRIPLES,
    PHASE_TABLES,
    ReceptionOutcome,
    RpmCase,
    apply_rpm,
    run_reference_row,
    synthesize_state,
)
from becsim.regions import (
    LinearIneq,
    build_flow_polyhedron,
    build_phi_4user,
    capacity_gap,
    exponential_penalty,
    feasibility_check,
    fm_eliminate,
)
from becsim.scheduler import DELIVERED, TransitionTable, derive_transitions
from becsim.sim import SimConfig, run, stability_probe

GOLDEN = Path(__file__).parent / "golden"


def report(num, detail):
    print(f"PASS criterion {num}: {detail}", flush=True)


def U(*xs):
    return UserSet.of(*xs)


def QI(l, d):
    return QueueIndex(UserSet.from_iterable(l), UserSet.from_iterable(d))


def S(*xs):
    return ReceptionOutcome(UserSet.of(*xs))


@pytest.fixture(scope="module")
def long_run_n4():
    cfg = SimConfig(
        n_users=4,
        horizon=100_000,
        erasure=ErasureModel.iid(4, 0.5),
        arrivals=ArrivalModel.bernoulli((0.16, 0.14, 0.12, 0.10)),
        restriction=TABLE8,
        seed="acceptance-n4",
        engine="object",
        policy="maxweight",
        audit_every=1,
        deep_audit_every=1000,
        decode_monitor=True,
        overhead_monitor=True,
        decimate=1,
    )
    return run(cfg)


@pytest.fixture(scope="module")
def long_run_n5():
    cfg = SimConfig(
        n_users=5,
        horizon=100_000,
        erasure=ErasureModel.iid(5, 0.5),
        arrivals=ArrivalModel.bernoulli((0.10, 0.09, 0.08, 0.07, 0.06)),
        restriction=FULL,
        seed="acceptance-n5",
        engine="object",
        policy="random",
        audit_every=1,
        deep_audit_every=1000,
        decode_monitor=True,
        overhead_monitor=True,
        decimate=1,
    )
    return run(cfg)


def test_01_reference_rows_and_walkthroughs():
    started = time.perf_counter()
    rows = [
        run_reference_row(table, triple)
        for phase in sorted(PHASE_TABLES)
        for table in PHASE_TABLES[phase]
        for triple in FEEDBACK_TRIPLES
    ]
    assert len(rows) == 56
    bad = [r for r in rows if not r["ok"]]
    assert bad == []

    # three-pair walkthrough, all four reception patterns
    pairs = [((1, 2, 3, 5), (0,)), ((0, 2, 4), (1, 3)), ((0, 1, 3, 5), (2,))]
    spec = ControlSpec.of(*pairs)
    qis = [QI(l, d) for l, d in pairs]

    def fresh():
        state = synthesize_state(8, pairs)
        return state, [state.queue(qi)[0].pid for qi in qis]

    state, pids = fresh()
    plan = apply_rpm(state, spec, None, S(1, 4, 5))
    assert plan.case is RpmCase.ADVANCE
    assert plan.decoded == [(1, NativePacketId(1, 0))]
    assert plan.real_moves == [(pids[1], qis[1], QI((0, 1, 2, 4, 5), (3,)))]
    assert audit_state(state, deep=True) == []

    state, pids = fresh()
    plan = apply_rpm(state, spec, None, S(6, 7))
    assert plan.case is RpmCase.MERGE
    target = QI((6, 7), (0, 1, 2, 3))
    assert plan.merged is not None and plan.merged[1] == target
    merged = state.queue(target)[0]
    assert merged.constituents == frozenset(
        NativePacketId(i, 0) for i in range(4)
    )
    assert all(state.queue(qi) == [] for qi in qis)
    assert audit_state(state, deep=True) == []

    state, pids = fresh()
    plan = apply_rpm(state, spec, None, S(6))
    assert plan.case is RpmCase.SHRINK
    assert plan.s_effective == U() and plan.real_moves == []
    assert audit_state(state, deep=True) == []

    state, pids = fresh()
    plan = apply_rpm(state, spec, None, S(1, 6))
    assert plan.case is RpmCase.SHRINK
    assert plan.s_effective == U(1)
    assert plan.decoded == [(1, NativePacketId(1, 0))]
    assert plan.real_moves == [(pids[1], qis[1], QI((0, 1, 2, 4), (3,)))]
    assert audit_state(state, deep=True) == []

    # explicit packet choice overrides the FIFO head
    state = synthesize_state(3, [((), (0,)), ((), (0,))])
    qi = QI((), (0,))
    first, second = state.queue(qi)
    apply_rpm(state, ControlSpec.of(((), (0,))), [second], S(0))
    assert state.queue(qi) == [first]
    assert audit_state(state, deep=True) == []

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    report(1, f"56 reference rows + 5 walkthroughs in {elapsed * 1000:.0f}ms")


def test_02_state_invariants_preserved(long_run_n4, long_run_n5):
    # exhaustive: every three-user control x every reception set, applied to
    # randomized consistent states, leaves the deep audit clean
    catalog = enumerate_controls(3, FULL)
    rng = random.Random("acceptance-2")
    pool = [qi for spec in catalog for qi in spec.sorted_pairs]
    states = 0
    for spec in catalog:
        base = [
            (tuple(qi.listeners), tuple(qi.destinations), rng.randrange(3))
            for qi in spec.sorted_pairs
        ]
        for mask in range(8):
            for _ in range(5):
                entries = list(base)
                for qi in rng.sample(pool, k=rng.randrange(3)):
                    entries.append(
                        (tuple(qi.listeners), tuple(qi.destinations))
                    )
                rng.shuffle(entries)
                state = synthesize_state(3, entries)
                apply_rpm(state, spec, None, ReceptionOutcome(UserSet(mask)))
                problems = audit_state(state, deep=True)
                assert problems == [], (spec, mask, problems)
                states += 1
    assert states >= 1000

    # the 10^5-slot histories were audited every slot (deeply every 1000) and
    # the counter sandwich q <= v <= n*q holds on every sampled slot
    for result, n in ((long_run_n4, 4), (long_run_n5, 5)):
        assert result.config.audit_every == 1
        assert len(result.trace) == 100_000
        for m in result.trace:
            assert m.q_hat <= m.v_hat <= n * m.q_hat
        assert audit_state(result.state, deep=True) == []
    report(2, f"{states} exhaustive states + two audited 10^5-slot runs")


def test_03_instant_decodability(long_run_n4):
    # the decode monitor raises on any composite a receiver in S cannot use;
    # three long runs with the monitor armed never trip it
    assert long_run_n4.config.decode_monitor
    totals = {4: sum(long_run_n4.delivered_total)}
    for n, rates in ((2, (0.25, 0.20)), (3, (0.20, 0.15, 0.12))):
        cfg = SimConfig(
            n_users=n,
            horizon=100_000,
            erasure=ErasureModel.iid(n, 0.5),
            arrivals=ArrivalModel.bernoulli(rates),
            restriction=FULL,
            seed=f"acceptance-3-n{n}",
            engine="object",
            decode_monitor=True,
            audit_every=0,
            deep_audit_every=10_000,
            decimate=0,
        )
        result = run(cfg)
        totals[n] = sum(result.delivered_total)
        assert totals[n] > 0
    report(3, f"decode monitor clean over 3x10^5 slots, deliveries {totals}")


def test_04_transition_tables():
    # symbolic: the exact two-user table at eps=1/2 matches the checked-in form
    catalog = enumerate_controls(2, FULL)
    table = TransitionTable.for_catalog(catalog, ErasureModel.iid(2, F(1, 2)))
    table.validate()
    golden = (GOLDEN / "transitions_n2_iid_half.json").read_text()
    assert table.to_json() + "\n" == golden

    # structural check against closed-form erase/receive masses on an
    # asymmetric joint pmf: stay/move/deliver weights come out exactly
    joint = ErasureModel.joint(
        2, {(): F(1, 10), (0,): F(1, 5), (1,): F(3, 10), (0, 1): F(2, 5)}
    )
    root = ControlSpec.of(((), (0,)))
    edges = derive_transitions(root, joint)
    node = (QI((), (0,)), 0)
    assert edges[node][DELIVERED] == joint.p_gs(U(), U(0))  # 0 received
    assert edges[node][node] == joint.p_gs(U(0, 1), U())  # both erased
    assert edges[node][(QI((1,), (0,)), 0)] == joint.p_gs(U(0), U(1))
    swap = ControlSpec.of(((1,), (0,)), ((0,), (1,)))
    sedges = derive_transitions(swap, joint)
    a, b = (QI((1,), (0,)), 0), (QI((0,), (1,)), 1)
    assert sedges[a] == {DELIVERED: F(3, 5), a: F(2, 5)}
    assert sedges[b] == {DELIVERED: F(7, 10), b: F(3, 10)}

    # empirical: sampled token moves match the derived law within 3 sigma
    model = ErasureModel.iid(2, F(1, 2))
    rng = make_rng("acceptance-4", "chan")
    trials = 100_000
    hits = {a: {}, b: {}}
    entries = [
        (tuple(qi.listeners), tuple(qi.destinations)) for qi in swap.sorted_pairs
    ]
    for _ in range(trials):
        state = synthesize_state(2, entries)
        native_node = {}
        for qi in swap.sorted_pairs:
            pkt = state.queue(qi)[0]
            for i in qi.destinations:
                native_node[state.find_token(qi, i, pkt.pid).native] = (qi, i)
        plan = apply_rpm(state, swap, None, ReceptionOutcome(sample_reception(model, rng)))
        landed = {}
        for native, _src, dst in plan.token_moves:
            landed[native_node[native]] = DELIVERED if dst is None else dst
        for nodekey in (a, b):
            tgt = landed.get(nodekey, nodekey)
            hits[nodekey][tgt] = hits[nodekey].get(tgt, 0) + 1
    law = derive_transitions(swap, model)
    worst = 0.0
    for nodekey in (a, b):
        for tgt, p in law[nodekey].items():
            freq = hits[nodekey].get(tgt, 0) / trials
            sigma = (float(p) * (1 - float(p)) / trials) ** 0.5
            pull = abs(freq - float(p)) / sigma if sigma else 0.0
            worst = max(worst, pull)
            assert pull <= 3.0, (nodekey, tgt, freq, p, pull)
    report(4, f"golden symbolic table + empirical max pull {worst:.2f} sigma")


def test_05_two_user_region_and_stability():
    # projecting out the time shares leaves exactly two rate inequalities
    catalog = enumerate_controls(2, FULL)
    model = ErasureModel.iid(2, F(1, 2))
    poly, var_of = build_flow_polyhedron(model, catalog)
    for spec in sorted(var_of, key=lambda s: var_of[s], reverse=True):
        poly = fm_eliminate(poly, var_of[spec], tol=0)
    expected = {
        LinearIneq.of({"lam0": F(2), "lam1": F(4, 3)}, F(1)),
        LinearIneq.of({"lam0": F(4, 3), "lam1": F(2)}, F(1)),
    }
    assert set(poly.inequalities) == expected

    # the symmetric boundary point: stable 10% inside, unstable 10% outside
    cfg = SimConfig(
        n_users=2,
        horizon=1,
        erasure=ErasureModel.iid(2, 0.5),
        arrivals=ArrivalModel.bernoulli((0.0, 0.0)),
        restriction=FULL,
        seed="acceptance-5",
    )
    reports = stability_probe(
        cfg, (0.3, 0.3), (0.9, 1.1), seeds=5, window=100_000
    )
    assert reports[0]["verdict"] == "bounded", reports[0]
    assert reports[1]["verdict"] == "growing", reports[1]
    report(
        5,
        "exact 2-inequality region; slopes "
        f"in={max(reports[0]['slopes']):.2e} out={min(reports[1]['slopes']):.2e}",
    )


def test_06_four_user_certificate_sweep():
    rng = make_rng("acceptance-6", "rays")
    checked = 0
    for tenth in range(1, 10):
        eps = F(tenth, 10)
        model = ErasureModel.iid(4, eps)
        catalog = enumerate_controls(4, TABLE8)
        transitions = None
        for _ in range(20):
            weights = sorted(
                (F(rng.randrange(1, 1000), 1000) for _ in range(4)),
                reverse=True,
            )
            denom = sum(
                w / (1 - eps ** (k + 1)) for k, w in enumerate(weights)
            )
            rates = tuple(F(99, 100) * w / denom for w in weights)
            rec = build_phi_4user(rates, eps, method="recursive")
            clo = build_phi_4user(rates, eps, method="closed")
            assert all(share >= 0 for share in rec.phi.values())
            # exact rationals: "within 1e-12" is met with zero error
            budget = sum(
                r / (1 - eps ** (i + 1)) for i, r in enumerate(rates)
            )
            assert rec.total() == budget
            assert rec.phi == clo.phi
            if transitions is None:
                transitions = {
                    spec: derive_transitions(spec, model) for spec in rec.phi
                }
            verdict = feasibility_check(
                rates, rec, model, catalog, tol=0, transitions=transitions
            )
            assert verdict["feasible"], (eps, rates, verdict)
            checked += 1
    assert checked == 180
    report(6, "180 boundary rays: certificates exact, balanced, feasible")


@pytest.mark.slow
def test_07_throughput_at_desk_scale():
    verdicts = {}
    for eps in (0.25, 0.5, 0.75):
        cfg = SimConfig(
            n_users=4,
            horizon=1,
            erasure=ErasureModel.iid(4, eps),
            arrivals=ArrivalModel.bernoulli((0.0,) * 4),
            restriction=TABLE8,
            seed=f"acceptance-7-{eps}",
        )
        reports = stability_probe(
            cfg, (1.0, 1.0, 1.0, 1.0), (0.9, 1.1), seeds=5, window=100_000
        )
        verdicts[eps] = [r["verdict"] for r in reports]
        assert verdicts[eps] == ["bounded", "growing"], (eps, reports)
    report(7, f"symmetric boundary verdicts {verdicts}")


def test_08_overhead_bounds(long_run_n4):
    assert long_run_n4.config.overhead_monitor

    def cap_stored(level):
        out = 1
        for k in range(1, level):
            out *= k
        return out  # (level-1)!

    for level, size in long_run_n4.max_stored_by_level.items():
        assert size <= cap_stored(level), (level, size)
    for level, size in long_run_n4.max_exit_by_level.items():
        assert size <= cap_stored(level) * level, (level, size)  # level!
    assert max(long_run_n4.overhead_hist) >= 2  # coding actually occurred

    ids, id_bits, payload_bits = 24, 20, 12_000
    overhead = F(ids * id_bits, payload_bits)
    assert overhead == F(1, 25)
    assert float(overhead) == 0.04
    report(
        8,
        f"stored/exit caps hold (hist {dict(sorted(long_run_n4.overhead_hist.items()))}); "
        "24 ids x 20 bits / 12000 = 4%",
    )


def test_09_finite_length_gap():
    rng = random.Random("acceptance-9")
    lengths = (100, 1_000, 10_000)
    coincide = 0
    for trial in range(10):
        n = rng.randint(1, 4)
        eps = [rng.uniform(0.05, 0.9) for _ in range(n)]
        model = ErasureModel.iid(n, eps)
        rates = [rng.uniform(0.01, 0.25) for _ in range(n)]
        gaps = []
        for bits in lengths:
            info = capacity_gap(rates, model, bits)
            gap = info["gap"]
            assert gap > 0
            # the reported gap is exactly the exponential penalty at the
            # finite-length maximizer
            assert gap == exponential_penalty(model, info["capacity_perm"], bits)
            # and that penalty is 2^(-bits/a) * a / bits for the prefix sum a
            prefix = []
            denoms = []
            for u in info["capacity_perm"]:
                prefix.append(u)
                denoms.append(
                    1 - epsilon_g(model, UserSet.from_iterable(prefix))
                )
            a = sum(1 / d for d in denoms)
            with localcontext() as ctx:
                ctx.prec = 40
                da = Decimal(a)
                want = (
                    (-Decimal(bits) / da * Decimal(2).ln()).exp()
                    * da
                    / Decimal(bits)
                )
            assert gap == want
            assert info["capacity_margin"] <= info["outer_margin"]
            if info["capacity_perm"] == info["outer_perm"]:
                coincide += 1
                assert (
                    abs(
                        (info["outer_margin"] - info["capacity_margin"])
                        - float(gap)
                    )
                    <= 1e-12
                )
            gaps.append(gap)
        assert gaps[0] > gaps[1] > gaps[2] > 0
    assert coincide >= 25  # argmaxes agree except possibly at tiny lengths
    report(9, f"10 instances: gap positive, monotone; {coincide}/30 argmax agree")
