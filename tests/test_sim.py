"""Simulation engine tests.

The counts engine has no packets, tokens or bases, so its correctness case
rests on per-slot metric equality with the fully audited object engine over
identical seeds, on a fixed grid and on random configurations.  The remaining tests pin config validation, degenerate
channels, retransmit stickiness, flush accounting, decimation, windowed
means, monitor wiring and probe verdicts.
"""

import random
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from becsim.channel import ArrivalModel, ErasureModel
from becsim.coding import enumerate_controls
from becsim.core import ConfigError, MonitorViolation, QueueIndex, UserSet
from becsim.movement import synthesize_state
from becsim.scheduler import DELIVERED, TransitionTable, select_control
from becsim.sim import (
    SimConfig,
    _ObjectQueues,
    _queue_space,
    _select,
    compile_catalog,
    run,
    stability_probe,
    worker_count,
)

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
def random_configs(draw):
    """Any N <= 4 system: iid erasures (rational or float) or a joint pmf
    with zero-mass sets, either policy, retransmit mode and flush rule."""
    n = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["rational", "float", "joint"]))
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


PARITY = [
    (2, "full", JOINT2),
    (3, "full", ErasureModel.iid(3, F(2, 5))),
    (3, "full", ErasureModel.iid(3, 0.4)),
    (4, "table8", ErasureModel.iid(4, F(1, 4))),
]


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
        # rows with deliveries dropped, exactly, in the same order
        for cc, spec in zip(compiled.controls, specs):
            assert cc.node_terms == tuple(
                (
                    qidx[qi],
                    tuple(
                        (qidx[tgt[0]], p)
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

        def reward(cc, lengths):
            total = F(0)
            for src, row in cc.node_terms:
                drift = lengths[src] - sum(F(p) * lengths[tgt] for tgt, p in row)
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
        # equal in value, but a float pmf keeps float rows
        floats = compiled(0.25)
        assert floats is not quarter
        assert (floats.scale, quarter.scale) == (1, 64)
        assert compiled(F(1, 3)) is not compiled(F(1, 4))
        # max-weight builds the delta tables for either engine
        cfg = make_config(n=3, eps=F(1, 4), engine="object")
        assert compile_catalog(cfg) is compiled(F(1, 4))
        random_policy = compile_catalog(replace(cfg, policy="random"))
        assert random_policy.controls[0].deltas is None
        assert compiled(F(1, 4)) is not random_policy

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
