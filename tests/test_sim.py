"""Simulation engine tests.

The counts engine has no packets, tokens or bases, so its correctness case
rests on per-slot metric equality with the fully audited object engine over
identical seeds, on a fixed grid and on random configurations.  The remaining tests pin config validation, degenerate
channels, memoized selection against a fresh one, the backends' changed
masks, retransmit stickiness, flush accounting, decimation, windowed
means, monitor wiring and probe verdicts.
"""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from becsim.channel import ArrivalModel, ErasureModel
from becsim.coding import enumerate_controls
from becsim.core import (
    ConfigError,
    MonitorViolation,
    QueueIndex,
    RealPacket,
    Token,
    UserSet,
)
from becsim.scheduler import DELIVERED, TransitionTable, _queue_space
from becsim.sim import (
    SimConfig,
    _CountQueues,
    _ObjectQueues,
    _select,
    _SelectMemo,
    compile_catalog,
    run,
    stability_probe,
    summarize,
    worker_count,
)
from reference_rows import select_control, synthesize_state

JOINT2 = ErasureModel.joint(
    2, {(): F(1, 10), (0,): F(1, 5), (1,): F(3, 10), (0, 1): F(2, 5)}
)


def make_config(n=2, horizon=500, eps=0.5, rates=None, **kw):
    if rates is None:
        rates = tuple(0.3 / n for _ in range(n))
    erasure = eps if isinstance(eps, ErasureModel) else ErasureModel.iid(n, eps)
    return SimConfig(
        n_users=n,
        horizon=horizon,
        erasure=erasure,
        arrivals=ArrivalModel.bernoulli(rates),
        **kw,
    )


class TestConfigValidation:
    def test_bad_horizon(self):
        with pytest.raises(ConfigError):
            run(make_config(horizon=0))

    def test_user_count_mismatch(self):
        cfg = make_config(n=2)
        cfg.arrivals = ArrivalModel.bernoulli((0.1, 0.1, 0.1))
        with pytest.raises(ConfigError):
            run(cfg)
        cfg = make_config(n=2)
        cfg.erasure = ErasureModel.iid(3, 0.5)
        cfg.n_users = 3
        with pytest.raises(ConfigError):
            run(cfg)

    def test_bad_enums(self):
        for kw in (
            {"engine": "quantum"},
            {"policy": "psychic"},
            {"retransmit_mode": "sometimes"},
            {"decimate": -1},
        ):
            with pytest.raises(ConfigError):
                run(make_config(**kw))

    def test_single_user_runs(self):
        res = run(make_config(n=1, horizon=200, eps=0.3, rates=(0.4,)))
        assert sum(res.delivered_total) + res.final_v_hat == sum(
            res.arrivals_total
        )


class TestDegenerateChannels:
    def test_perfect_channel_never_stores_composites(self):
        # everyone always receives: every transmission is fully served, so
        # nothing ever climbs past level 1 and overhead is always a single id
        res = run(make_config(n=3, horizon=2000, eps=0.0, rates=(0.2, 0.2, 0.2)))
        assert res.delivered_total == res.arrivals_total or res.final_q_hat <= 3
        assert set(res.overhead_hist) <= {1}
        assert set(res.max_exit_by_level) <= {1}
        # one departure per slot against rate 0.6 total: short bursts only
        assert res.max_q_hat <= 25

    def test_blocked_channel_never_delivers(self):
        res = run(make_config(n=2, horizon=1000, eps=1.0, rates=(0.3, 0.3)))
        assert res.delivered_total == (0, 0)
        assert res.final_q_hat == sum(res.arrivals_total)
        assert res.final_v_hat == res.final_q_hat  # all stuck at level 1
        # once a packet exists the control is stuck retransmitting it
        stuck = [m for m in res.trace if m.control is not None]
        assert stuck and all(m.case == "1" for m in stuck)
        assert all(m.retransmit for m in stuck[1:])


GRID = [
    dict(n=2, eps=0.5, rates=(0.25, 0.25), restriction="full", policy="maxweight"),
    dict(n=2, eps=JOINT2, rates=(0.3, 0.2), restriction="full", policy="maxweight"),
    dict(n=3, eps=0.4, rates=(0.2, 0.15, 0.1), restriction="full", policy="maxweight"),
    dict(n=3, eps=0.7, rates=(0.1, 0.1, 0.1), restriction="full", policy="random"),
    dict(
        n=4,
        eps=0.5,
        rates=(0.12, 0.1, 0.08, 0.06),
        restriction="table8",
        policy="maxweight",
    ),
]


class TestEngineEquivalence:
    @pytest.mark.parametrize("params", GRID, ids=lambda p: f"n{p['n']}-{p['policy']}")
    def test_traces_identical(self, params):
        runs = {}
        for engine in ("object", "counts"):
            cfg = make_config(
                n=params["n"],
                horizon=2500,
                eps=params["eps"],
                rates=params["rates"],
                restriction=params["restriction"],
                policy=params["policy"],
                engine=engine,
                seed="twin",
            )
            runs[engine] = run(cfg)
        a, b = runs["object"], runs["counts"]
        assert a.trace == b.trace
        assert a.arrivals_total == b.arrivals_total
        assert a.delivered_total == b.delivered_total
        assert a.overhead_hist == b.overhead_hist
        assert a.max_stored_by_level == b.max_stored_by_level
        assert a.max_exit_by_level == b.max_exit_by_level
        assert (a.flush_slots, a.idle_slots) == (b.flush_slots, b.idle_slots)
        assert (a.max_q_hat, a.max_v_hat) == (b.max_q_hat, b.max_v_hat)

    def test_retransmit_modes_agree_across_engines(self):
        for mode in ("sticky", "reselect"):
            traces = []
            for engine in ("object", "counts"):
                res = run(
                    make_config(
                        n=2,
                        horizon=1500,
                        eps=0.8,
                        rates=(0.05, 0.05),
                        engine=engine,
                        retransmit_mode=mode,
                        seed=f"mode-{mode}",
                    )
                )
                traces.append(res.trace)
            assert traces[0] == traces[1]


@st.composite
def random_configs(draw, kinds=("rational", "float", "joint")):
    """Any N <= 4 system: iid erasures (rational or float) or a joint pmf
    with zero-mass sets, either policy, retransmit mode and flush rule."""
    n = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(kinds))
    if kind == "joint":
        weights = draw(
            st.lists(st.integers(0, 3), min_size=1 << n, max_size=1 << n).filter(any)
        )
        model = ErasureModel.joint(
            n,
            {
                tuple(u for u in range(n) if mask >> u & 1): F(w, sum(weights))
                for mask, w in enumerate(weights)
            },
        )
    else:
        eps = [F(draw(st.integers(0, 10)), 10) for _ in range(n)]
        if kind == "float":
            eps = [float(e) for e in eps]
        model = ErasureModel.iid(n, eps)
    return dict(
        n=n,
        horizon=300,
        eps=model,
        rates=tuple(draw(st.integers(0, 60)) / (100 * n) for _ in range(n)),
        restriction="table8" if n == 4 else "full",
        policy=draw(st.sampled_from(["maxweight", "random"])),
        retransmit_mode=draw(st.sampled_from(["sticky", "reselect"])),
        flush_on_empty=draw(st.booleans()),
        seed=draw(st.integers(0, 2**32)),
    )


class TestEngineProperty:
    @settings(max_examples=100, deadline=None)
    @given(random_configs())
    def test_engines_agree(self, params):
        a, b = (run(make_config(engine=e, **params)) for e in ("object", "counts"))
        assert a.trace == b.trace
        assert a.arrivals_total == b.arrivals_total
        assert a.delivered_total == b.delivered_total
        assert (a.final_q_hat, a.final_v_hat) == (b.final_q_hat, b.final_v_hat)
        assert (a.max_q_hat, a.max_v_hat) == (b.max_q_hat, b.max_v_hat)
        assert a.overhead_hist == b.overhead_hist
        assert a.max_stored_by_level == b.max_stored_by_level
        assert a.max_exit_by_level == b.max_exit_by_level
        assert (a.flush_slots, a.idle_slots) == (b.flush_slots, b.idle_slots)


def _rebuild(model, convert):
    """The model with every ε or pmf entry replaced by convert(float(p))."""
    if model.eps is not None:
        return ErasureModel.iid(model.n_users, [convert(float(e)) for e in model.eps])
    return ErasureModel.joint(
        model.n_users, {s: convert(float(p)) for s, p in model.pmf()}
    )


class TestFloatInputs:
    """A float ε or pmf entry is the decimal it prints as, so it runs as
    the ``Fraction`` of that decimal does: same drifts, same ties (catalog
    order), same sampling thresholds."""

    @pytest.mark.parametrize("engine", ["object", "counts"])
    def test_float_and_fraction_share_a_trace(self, engine):
        # rounded float drifts once broke a tie at row 44 differently:
        # control 3 for 0.3, control 0 for 3/10
        a, b = (
            run(
                make_config(
                    n=3,
                    horizon=100,
                    eps=eps,
                    rates=(0.20, 0.17, 0.14),
                    seed="x",
                    engine=engine,
                )
            )
            for eps in (0.3, F(3, 10))
        )
        assert a.trace == b.trace

    @pytest.mark.parametrize("policy", ["maxweight", "random"])
    @settings(max_examples=40, deadline=None)
    @given(
        params=random_configs(kinds=("float", "joint")),
        engine=st.sampled_from(["object", "counts"]),
    )
    def test_float_model_runs_as_its_decimal_twin(self, policy, params, engine):
        model = params.pop("eps")
        twins = (_rebuild(model, float), _rebuild(model, lambda x: F(str(x))))
        a, b = (
            run(make_config(eps=m, engine=engine, **dict(params, policy=policy)))
            for m in twins
        )
        assert a.trace == b.trace
        assert summarize(a) == summarize(b)


PARITY = [
    (2, "full", JOINT2),
    (3, "full", ErasureModel.iid(3, F(2, 5))),
    (3, "full", ErasureModel.iid(3, 0.4)),
    (4, "table8", ErasureModel.iid(4, F(1, 4))),
]


MEMO_CASES = [
    (2, "full", ErasureModel.iid(2, F(1, 3))),
    (3, "full", ErasureModel.iid(3, F(2, 5))),
    (4, "table8", ErasureModel.iid(4, F(1, 4))),
    (
        3,
        "full",
        ErasureModel.joint(
            3,
            {(): F(1, 8), (0,): F(1, 4), (1, 2): F(1, 8), (0, 2): F(1, 6),
             (0, 1, 2): F(1, 3)},
        ),
    ),
]


def walk_select(compiled, policy, steps, seed):
    """Walk queue lengths through steps, each a list of (which, value) draws
    in [0, 1) that change one queue apiece (a third of them empty a
    non-empty queue), and check at every step that a memoized selection
    equals a fresh one, the random policy with equal rng seeds."""
    n_queues = len(compiled.queues)
    lengths = [0] * n_queues
    memo = _SelectMemo(compiled)
    rng_memo, rng_fresh = random.Random(seed), random.Random(seed)
    for draws in steps:
        changed = 0
        for which, value in draws:
            q = int(which * n_queues)
            old = lengths[q]
            if old and value < 1 / 3:
                lengths[q] = 0
            else:
                if old:
                    value = (value - 1 / 3) * 3 / 2
                # any of 1..7 other than the old length
                new = 1 + int(value * 6)
                lengths[q] = new + (new >= old > 0)
            changed |= 1 << q
        nonzero = sum(1 << k for k, ln in enumerate(lengths) if ln)
        memo.touch(changed)
        got = _select(compiled, lengths, nonzero, policy, rng_memo, memo)
        assert got == _select(compiled, lengths, nonzero, policy, rng_fresh)


class TestSelection:
    @pytest.mark.parametrize(
        "n, restriction, model",
        PARITY,
        ids=["n2-joint", "n3-rational", "n3-float", "n4-table8"],
    )
    def test_compiled_select_matches_reference(self, n, restriction, model):
        catalog = enumerate_controls(n, restriction)
        table = TransitionTable.for_catalog(catalog, model)
        cfg = make_config(n=n, horizon=1, eps=model, restriction=restriction)
        compiled = compile_catalog(cfg)
        queues, qidx, _, _, _ = _queue_space(n)
        specs = list(catalog)
        # the rows folded from the delta table are the reference table's
        # rows with deliveries dropped, times scale, in the same order
        for cc, spec in zip(compiled.controls, specs):
            assert cc.rows == tuple(
                (
                    qidx[qi],
                    tuple(
                        (qidx[tgt[0]], p * compiled.scale)
                        for tgt, p in targets.items()
                        if tgt != DELIVERED
                    ),
                )
                for (qi, _i), targets in table.edges(spec).items()
            )
        pairs = list(queues)
        rng = random.Random("select-parity")
        for _ in range(120):
            entries = [
                (tuple(qi.listeners), tuple(qi.destinations))
                for qi in rng.choices(pairs, k=rng.randint(0, 6))
            ]
            state = synthesize_state(n, entries)
            lengths = [len(state.queue(qi)) for qi in queues]
            nonzero = sum(1 << k for k, ln in enumerate(lengths) if ln)
            got = _select(compiled, lengths, nonzero, "maxweight", None)
            want = select_control(state, catalog, table)
            if want is None:
                assert got is None
            else:
                assert specs[got] == want

    @pytest.mark.parametrize(
        "n, restriction, model",
        [PARITY[i] for i in (0, 1, 3)],
        ids=["n2-joint", "n3-rational", "n4-table8"],
    )
    def test_integer_select_is_exact(self, n, restriction, model):
        compiled = compile_catalog(
            make_config(n=n, horizon=1, eps=model, restriction=restriction)
        )
        n_queues = len(compiled.queues)
        scale = compiled.scale

        def reward(cc, lengths):
            total = F(0)
            for src, row in cc.rows:
                drift = lengths[src] - sum(
                    F(w, scale) * lengths[tgt] for tgt, w in row
                )
                total += max(drift, 0)
            return total

        rng = random.Random(f"exact-{n}")
        vectors = [[rng.randint(0, 10**9) for _ in range(n_queues)] for _ in range(40)]
        vectors += [[c] * n_queues for c in (1, 7, 10**9)]
        vectors += [
            [c if rng.random() < 0.5 else 0 for _ in range(n_queues)]
            for c in (1, 10**9)
            for _ in range(10)
        ]
        for lengths in vectors:
            nonzero = sum(1 << k for k, ln in enumerate(lengths) if ln)
            want, best = None, None
            for idx, cc in enumerate(compiled.controls):
                if cc.required_mask & nonzero == cc.required_mask:
                    r = reward(cc, lengths)
                    if best is None or r > best:
                        want, best = idx, r
            assert _select(compiled, lengths, nonzero, "maxweight", None) == want

    @pytest.mark.parametrize(
        "n, restriction, model",
        PARITY,
        ids=["n2-joint", "n3-rational", "n3-float", "n4-table8"],
    )
    def test_rows_and_deliveries_sum_to_scale(self, n, restriction, model):
        compiled = compile_catalog(
            make_config(n=n, horizon=1, eps=model, restriction=restriction)
        )
        scale = compiled.scale
        scaled_pmf = [(s, p * scale) for s, p in model.pmf()]
        for cc in compiled.controls:
            # the deliveries read from the delta table, not from the rows
            delivered = {}
            for s, w in scaled_pmf:
                for user in cc.deltas[s.mask].deliveries:
                    delivered[user] = delivered.get(user, 0) + w
            users = [i for q in cc.queue_ids for i in compiled.queues[q].destinations]
            assert len(users) == len(set(users)) == len(cc.rows)
            for (_src, row), user in zip(cc.rows, users):
                assert all(type(w) is int and w > 0 for _tgt, w in row)
                assert sum(w for _tgt, w in row) + delivered.get(user, 0) == scale

    @pytest.mark.parametrize("policy", ["maxweight", "random"])
    @pytest.mark.parametrize(
        "n, restriction, model",
        MEMO_CASES,
        ids=["n2-full", "n3-full", "n4-table8", "n3-joint"],
    )
    def test_memo_matches_fresh_select(self, n, restriction, model, policy):
        compiled = compile_catalog(
            make_config(
                n=n, horizon=1, eps=model, restriction=restriction, policy=policy
            )
        )
        walk = random.Random(f"walk-{n}-{restriction}-{policy}")
        steps = [
            [(walk.random(), walk.random()) for _ in range(walk.randint(1, 4))]
            for _ in range(400)
        ]
        walk_select(compiled, policy, steps, seed=f"pick-{n}")

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.lists(
                st.tuples(
                    st.floats(0, 1, exclude_max=True),
                    st.floats(0, 1, exclude_max=True),
                ),
                min_size=1,
                max_size=4,
            ),
            min_size=1,
            max_size=60,
        ),
        st.sampled_from(["maxweight", "random"]),
        st.integers(0, 2**32),
    )
    def test_memo_matches_fresh_select_property(self, steps, policy, seed):
        compiled = compile_catalog(
            make_config(n=3, horizon=1, eps=MEMO_CASES[3][2], policy=policy)
        )
        walk_select(compiled, policy, steps, seed)

    def test_idle_when_everything_empty(self):
        res = run(make_config(n=2, horizon=50, rates=(0.0, 0.0)))
        assert res.idle_slots == 50
        assert res.flush_slots == 0
        assert res.trace[0].control is None

    def test_random_policy_seed_sensitivity(self):
        base = dict(n=3, horizon=800, eps=0.6, rates=(0.15, 0.15, 0.15))
        a = run(make_config(policy="random", seed="r1", **base))
        b = run(make_config(policy="random", seed="r1", **base))
        c = run(make_config(policy="random", seed="r2", **base))
        assert a.trace == b.trace
        assert a.trace != c.trace


class TestScanChanges:
    @pytest.mark.parametrize("backend", [_ObjectQueues, _CountQueues])
    def test_changed_mask_is_length_diff(self, backend, monkeypatch):
        real = backend.scan
        scans = []

        def recording(self):
            lengths, nonzero, changed = real(self)
            scans.append((list(lengths), nonzero, changed))
            return lengths, nonzero, changed

        monkeypatch.setattr(backend, "scan", recording)
        engine = "object" if backend is _ObjectQueues else "counts"
        res = run(
            make_config(
                n=3, horizon=600, eps=0.6, rates=(0.15,) * 3, engine=engine,
                seed="scan",
            )
        )
        # sticky slots skip the scan, so a scan's changes may span slots
        sticky = sum(row.retransmit for row in res.trace)
        assert sticky and len(scans) == 600 - sticky
        before = [0] * len(scans[0][0])
        for lengths, nonzero, changed in scans:
            diff = [now != old for now, old in zip(lengths, before)]
            assert changed == sum(1 << k for k, d in enumerate(diff) if d)
            assert nonzero == sum(1 << k for k, ln in enumerate(lengths) if ln)
            before = lengths


class TestRetransmit:
    def test_sticky_repeats_last_control(self):
        res = run(
            make_config(
                n=2, horizon=2000, eps=0.85, rates=(0.05, 0.05), seed="sticky"
            )
        )
        rows = res.trace
        hits = 0
        for prev, cur in zip(rows, rows[1:]):
            if prev.case == "1" and prev.control is not None:
                assert cur.control == prev.control
                assert cur.retransmit
                hits += 1
        assert hits > 50  # erasures this heavy must retransmit often

    def test_reselect_never_flags_retransmit(self):
        res = run(
            make_config(
                n=2,
                horizon=2000,
                eps=0.85,
                rates=(0.05, 0.05),
                retransmit_mode="reselect",
                seed="sticky",
            )
        )
        assert not any(m.retransmit for m in res.trace)
        assert any(m.case == "1" for m in res.trace)


class TestFlush:
    def test_flush_rows_are_quiet(self):
        res = run(
            make_config(n=2, horizon=3000, eps=0.3, rates=(0.1, 0.1), seed="fl")
        )
        flush_rows = [m for m in res.trace if m.flush]
        assert len(flush_rows) == res.flush_slots > 0
        for m in flush_rows:
            assert m.control is None and m.case is None and m.overhead == 0

    def test_no_flush_without_prior_transmission(self):
        res = run(make_config(n=2, horizon=100, rates=(0.0, 0.0)))
        assert res.flush_slots == 0

    def test_flush_disabled_counts_idle(self):
        base = dict(n=2, horizon=3000, eps=0.3, rates=(0.1, 0.1), seed="fl")
        on = run(make_config(**base))
        off = run(make_config(flush_on_empty=False, **base))
        assert off.flush_slots == 0
        assert off.idle_slots == on.idle_slots + on.flush_slots
        # channel/arrival draws are untouched by the flush rule
        assert off.arrivals_total == on.arrivals_total
        assert off.delivered_total == on.delivered_total


class TestAccounting:
    @pytest.mark.parametrize("engine", ["object", "counts"])
    def test_conservation(self, engine):
        res = run(
            make_config(
                n=3,
                horizon=4000,
                eps=0.5,
                rates=(0.15, 0.12, 0.1),
                engine=engine,
                seed="acct",
            )
        )
        assert sum(res.delivered_total) + res.final_v_hat == sum(
            res.arrivals_total
        )
        assert res.final_q_hat <= res.final_v_hat <= 3 * res.final_q_hat

    def test_overhead_histogram_covers_transmissions(self):
        res = run(make_config(n=2, horizon=2000, seed="hist"))
        assert sum(res.overhead_hist.values()) == (
            2000 - res.idle_slots - res.flush_slots
        )

    def test_decimation(self):
        cfg = make_config(horizon=100, decimate=7, seed="dec")
        res = run(cfg)
        assert [m.t for m in res.trace] == list(range(0, 100, 7))
        cfg = make_config(horizon=100, decimate=0, seed="dec")
        assert run(cfg).trace == []

    def test_window_means_match_trace(self):
        cfg = make_config(n=2, horizon=400, seed="win")
        res = run(cfg, windows=((100, 200), (300, 400)))
        full = run(make_config(n=2, horizon=400, seed="win"))
        rows = {m.t: m.q_hat for m in full.trace}
        for (lo, hi), mean in zip(((100, 200), (300, 400)), res.window_means):
            want = sum(rows[t] for t in range(lo, hi)) / (hi - lo)
            assert mean == want

    def test_same_seed_same_trace_different_seed_differs(self):
        a = run(make_config(horizon=600, seed="d1"))
        b = run(make_config(horizon=600, seed="d1"))
        c = run(make_config(horizon=600, seed="d2"))
        assert a.trace == b.trace
        assert a.trace != c.trace


class TestMonitorWiring:
    def test_audit_failure_reports_slot(self, monkeypatch):
        import becsim.sim as sim_mod

        calls = {"n": 0}

        def tripwire(state, deep=False):
            calls["n"] += 1
            return ["synthetic failure"] if calls["n"] > 3 else []

        monkeypatch.setattr(sim_mod, "audit_state", tripwire)
        with pytest.raises(MonitorViolation) as err:
            run(make_config(horizon=50, seed="mon"))
        assert err.value.slot is not None
        assert "synthetic failure" in str(err.value)

    @pytest.mark.parametrize("engine", ["object", "counts"])
    def test_stored_cap_wiring(self, engine, monkeypatch):
        import becsim.sim as sim_mod

        monkeypatch.setattr(sim_mod, "_stored_cap", lambda level: 0)
        with pytest.raises(MonitorViolation):
            run(
                make_config(
                    n=2,
                    horizon=200,
                    eps=0.5,
                    rates=(0.3, 0.3),
                    engine=engine,
                    seed="cap",
                )
            )

    def test_monitors_can_be_disabled(self, monkeypatch):
        import becsim.sim as sim_mod

        monkeypatch.setattr(sim_mod, "_stored_cap", lambda level: 0)
        res = run(
            make_config(
                n=2,
                horizon=200,
                eps=0.5,
                rates=(0.3, 0.3),
                overhead_monitor=False,
                seed="cap",
            )
        )
        assert res.max_stored_by_level == {}

    def test_entry_deep_audit_reports_slot(self):
        config = make_config(n=2, deep_audit_every=5, seed="entry")
        compiled = compile_catalog(config)
        queues = _ObjectQueues(config, compiled)
        queues.arrive(0, 1)
        root = QueueIndex(UserSet(), UserSet.of(0))
        (packet,) = queues.state.queue(root)
        # user 0 already knows its pending native: only the deep audit sees it
        queues.state.bases[0].insert(packet.constituents)
        cc = next(c for c in compiled.controls if c.spec.sorted_pairs == (root,))
        with pytest.raises(MonitorViolation) as err:
            queues.transmit(cc, UserSet(), 10)
        assert err.value.slot == 10

    def test_entry_deep_audit_carries_control(self):
        config = make_config(n=2, deep_audit_every=5, seed="entry")
        compiled = compile_catalog(config)
        queues = _ObjectQueues(config, compiled)
        queues.arrive(0, 1)
        root = QueueIndex(UserSet(), UserSet.of(0))
        (packet,) = queues.state.queue(root)
        queues.state.bases[0].insert(packet.constituents)
        cc = next(c for c in compiled.controls if c.spec.sorted_pairs == (root,))
        with pytest.raises(MonitorViolation) as err:
            queues.transmit(cc, UserSet.of(1), 10)
        v = err.value
        # the entry audit runs before the heads move: no case yet
        assert (v.control, v.received, v.case) == (cc.index, 0b10, None)
        assert compiled.controls[v.control] is cc
        assert "at slot 10 (control" in str(v)

    @pytest.mark.parametrize("seed", ["ctx", 7])
    @pytest.mark.parametrize("engine", ["object", "counts"])
    def test_violation_carries_seed(self, engine, seed, monkeypatch):
        import becsim.sim as sim_mod

        monkeypatch.setattr(sim_mod, "_stored_cap", lambda level: 0)
        config = dict(self.CONTEXT, seed=seed)
        with pytest.raises(MonitorViolation) as err:
            run(make_config(engine=engine, **config))
        assert err.value.seed == seed
        assert str(err.value).endswith(f" (seed {seed!r})")
        # the seed reproduces the violation at the same slot
        with pytest.raises(MonitorViolation) as again:
            run(make_config(engine=engine, **dict(config, seed=err.value.seed)))
        assert str(again.value) == str(err.value)

    def test_backend_violation_carries_seed(self, monkeypatch):
        import becsim.sim as sim_mod

        monkeypatch.setattr(sim_mod, "audit_state", lambda state, deep=False: ["x"])
        with pytest.raises(MonitorViolation) as err:
            run(make_config(seed="audit"))
        assert err.value.seed == "audit"
        assert str(err.value).endswith("x (seed 'audit')")

    # the run without the failing monitor shows what the failing slot did
    CONTEXT = dict(n=2, horizon=200, eps=0.5, rates=(0.3, 0.3), seed="ctx")

    def assert_context(self, err, free, stage):
        v = err.value
        row = free.trace[v.slot]
        assert v.control == row.control is not None
        if stage == "selected":
            assert v.received is None and v.case is None
            head = f"monitor violation at slot {v.slot} (control {v.control}):"
            assert str(v).startswith(head)
            return
        assert v.case == row.case
        assert isinstance(v.received, int) and 0 <= v.received < 4
        assert v.case != "1" or v.received == 0
        assert f"(control {v.control}, received {v.received}, case {v.case})" in str(v)

    @pytest.mark.parametrize("engine", ["object", "counts"])
    def test_stored_cap_violation_carries_context(self, engine, monkeypatch):
        import becsim.sim as sim_mod

        free = run(make_config(engine=engine, **self.CONTEXT))
        monkeypatch.setattr(sim_mod, "_stored_cap", lambda level: 0)
        with pytest.raises(MonitorViolation) as err:
            run(make_config(engine=engine, **self.CONTEXT))
        self.assert_context(err, free, "moved")
        assert err.value.case in ("2.2.1", "2.2.2A", "2.2.2B")

    @pytest.mark.parametrize("engine", ["object", "counts"])
    def test_exit_overhead_violation_carries_control(self, engine, monkeypatch):
        import becsim.sim as sim_mod

        free = run(make_config(engine=engine, **self.CONTEXT))
        monkeypatch.setattr(sim_mod, "factorial", lambda k: 0)
        with pytest.raises(MonitorViolation) as err:
            run(make_config(engine=engine, **self.CONTEXT))
        self.assert_context(err, free, "selected")

    def test_decode_violation_carries_context(self, monkeypatch):
        import becsim.sim as sim_mod

        free = run(make_config(**self.CONTEXT))
        real = sim_mod.apply_rpm

        def forgetful(state, spec, chosen, outcome):
            plan = real(state, spec, chosen, outcome)
            for user, native in plan.decoded:
                state.decoded[user].discard(native)
            return plan

        monkeypatch.setattr(sim_mod, "apply_rpm", forgetful)
        with pytest.raises(MonitorViolation) as err:
            run(make_config(**self.CONTEXT))
        self.assert_context(err, free, "moved")
        assert "failed to decode" in str(err.value)

    def test_slot_audit_violation_carries_context(self, monkeypatch):
        import becsim.sim as sim_mod

        config = dict(self.CONTEXT, deep_audit_every=0)
        free = run(make_config(**config))
        busy = next(row.t for row in free.trace if row.control is not None)
        calls = {"n": 0}

        def tripwire(state, deep=False):
            calls["n"] += 1
            return ["synthetic failure"] if calls["n"] > busy else []

        monkeypatch.setattr(sim_mod, "audit_state", tripwire)
        with pytest.raises(MonitorViolation) as err:
            run(make_config(**config))
        assert err.value.slot == busy
        self.assert_context(err, free, "moved")


FAULTS = (
    "duplicate token",
    "removed token",
    "duplicate pid",
    "token for decoded native",
    "packet location changed",
    "removed packet",
)


def plant(state, fault, pick):
    """Plant one fault through the mutators, at a token pick chooses."""
    tokens = [t for queue in state.virtual_queues.values() for t in queue]
    tok = tokens[pick(len(tokens))]
    queues = _queue_space(state.n_users)[0]
    packet = state.packet(tok.packet_id)
    if fault == "duplicate token":
        state.append_token(Token(tok.native, tok.packet_id, tok.location))
    elif fault == "removed token":
        state.remove_token(tok)
    elif fault == "duplicate pid":
        where = queues[pick(len(queues))]
        state.append_packet(RealPacket(packet.pid, packet.constituents, where))
    elif fault == "token for decoded native":
        state.decode(tok.native.owner, tok.native)
    elif fault == "removed packet":
        state.remove_packet(packet)  # its tokens stay behind
    else:
        # the packet stays in its queue's list with another location
        others = [qi for qi in queues if qi != packet.location]
        state.remove_packet(packet)
        state.append_packet(packet)
        packet.location = others[pick(len(others))]


class TestIncrementalAudit:
    """A shallow audit checks only the queues the mutators touched; it must
    report what a walk of the whole state reports, at every slot of a clean
    run and at the slot a fault is planted."""

    @settings(max_examples=150, deadline=None)
    @given(
        catalog=st.sampled_from([(2, "full"), (3, "full"), (4, "full"), (4, "table8")]),
        eps=st.sampled_from([F(1, 4), F(1, 2)]),
        load=st.sampled_from([F(1, 2), F(9, 10)]),
        fault=st.sampled_from((None,) + FAULTS),
        at=st.integers(0, 79),
        seed=st.integers(0, 1 << 16),
        data=st.data(),
    )
    def test_shallow_audit_matches_full_walk(
        self, catalog, eps, load, fault, at, seed, data
    ):
        import becsim.sim as sim_mod

        n, restriction = catalog
        audit_state = sim_mod.audit_state
        reports = []
        planted = []  # the slot of the fault

        def pick(size):
            return data.draw(st.integers(0, size - 1))

        def compared(state, deep=False):
            slot = len(reports)
            if fault and not planted and slot >= at and state.running_v_hat:
                plant(state, fault, pick)
                planted.append(slot)
            shallow = audit_state(state, deep)
            state.audited = False  # the next audit walks every queue
            full = audit_state(state)
            assert set(shallow) == set(full), (slot, fault)
            # a clean slot reads [] from both, a planted fault is seen at once
            assert bool(shallow) == bool(planted), (slot, fault, shallow)
            reports.append(shallow)
            return shallow

        config = make_config(
            n=n,
            horizon=80,
            eps=eps,
            rates=[load / n] * n,
            restriction=restriction,
            seed=seed,
            deep_audit_every=0,
        )
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sim_mod, "audit_state", compared)
            try:
                run(config)
            except MonitorViolation as err:
                assert planted == [err.slot]
            else:
                assert not planted and len(reports) == 80


class TestStabilityProbe:
    def test_two_sided_verdicts(self):
        cfg = make_config(n=2, horizon=1, eps=0.5, rates=(0.0, 0.0), seed="probe")
        reports = stability_probe(
            cfg, (0.3, 0.3), (0.5, 1.5), seeds=3, window=4000
        )
        assert reports[0]["verdict"] == "bounded"
        assert reports[1]["verdict"] == "growing"
        assert reports[1]["max_q"] > reports[0]["max_q"]
        assert all(len(r["slopes"]) == 3 for r in reports)

    def test_probe_is_deterministic(self):
        cfg = make_config(n=2, horizon=1, eps=0.5, rates=(0.0, 0.0), seed="probe")
        a = stability_probe(cfg, (0.3, 0.3), (0.8,), seeds=2, window=2000)
        b = stability_probe(
            cfg, (0.3, 0.3), (0.8,), seeds=2, window=2000, workers=1
        )
        assert a == b

    def test_probe_is_deterministic_on_rational_input(self):
        cfg = make_config(
            n=2, horizon=1, eps=F(1, 4), rates=(0.0, 0.0), seed="probe"
        )
        a = stability_probe(
            cfg, (0.3, 0.3), (0.8, 1.2), seeds=2, window=1500, workers=2
        )
        b = stability_probe(
            cfg, (0.3, 0.3), (0.8, 1.2), seeds=2, window=1500, workers=1
        )
        assert a == b

    def test_compile_reused_for_equal_inputs_only(self):
        def compiled(eps):
            return compile_catalog(make_config(n=3, eps=eps, engine="counts"))

        quarter = compiled(F(1, 4))
        assert compiled(F(1, 4)) is quarter
        # a float reads as its decimal, so an equal float shares the compile
        assert compiled(0.25) is quarter
        assert quarter.scale == 64
        assert compiled(F(1, 3)) is not compiled(F(1, 4))
        # one compile serves every engine and policy
        cfg = make_config(n=3, eps=F(1, 4), engine="object", policy="random")
        assert compile_catalog(cfg) is compiled(F(1, 4))

    def test_zero_ray_rejected(self):
        cfg = make_config(n=2, horizon=1, rates=(0.0, 0.0))
        with pytest.raises(ConfigError):
            stability_probe(cfg, (0.0, 0.0), (1.0,))

    def test_worker_count_env(self, monkeypatch):
        monkeypatch.setenv("BECSIM_THREADS", "3")
        assert worker_count(None, 10) == 3
        assert worker_count(None, 2) == 2
        assert worker_count(8, 10) == 8
        monkeypatch.setenv("BECSIM_THREADS", "two")
        with pytest.raises(ConfigError):
            worker_count(None, 10)
        monkeypatch.delenv("BECSIM_THREADS")
        assert worker_count(1, None) == 1
