"""Bounds, the 4-user certificate, feasibility checking, and projection."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from becsim import regions
from becsim.channel import ErasureModel, epsilon_g
from becsim.coding import ControlSpec, enumerate_controls
from becsim.core import EMPTY, ConfigError, QueueIndex, UserSet
from becsim.regions import (
    DegenerateChannelError,
    FlowCertificate,
    InfeasibleRateError,
    LinearIneq,
    Polyhedron,
    build_flow_polyhedron,
    build_phi_4user,
    capacity_bound_argmax,
    capacity_gap,
    exponential_penalty,
    feasibility_check,
    fm_eliminate,
    outer_bound_argmax,
    outer_bound_margin,
)
from becsim.scheduler import DELIVERED, _queue_space, derive_transitions

JOINT2 = ErasureModel.joint(
    2, {(): F(1, 10), (0,): F(1, 5), (1,): F(3, 10), (0, 1): F(2, 5)}
)


def iid4(eps):
    return ErasureModel.iid(4, eps)


class TestOuterBound:
    def test_zero_rates(self):
        assert outer_bound_margin((0, 0, 0), ErasureModel.iid(3, 0.4)) == 0

    def test_uniform_half_erasure(self):
        margin = outer_bound_margin((F(1, 5),) * 4, iid4(F(1, 2)))
        assert margin == F(194, 175)  # 0.2 * (2 + 4/3 + 8/7 + 16/15)

    def test_iid_maximizer_sorts_rates_descending(self):
        rates = (F(1, 10), F(3, 10), F(1, 20), F(1, 4))
        margin, perm = outer_bound_argmax(rates, iid4(F(2, 5)))
        by_rate = sorted(range(4), key=lambda u: rates[u], reverse=True)
        assert list(perm) == by_rate
        eps = F(2, 5)
        expected = sum(
            rates[u] / (1 - eps ** (k + 1)) for k, u in enumerate(by_rate)
        )
        assert margin == expected

    def test_two_user_joint_matches_hand_formula(self):
        # erasures: eps0=2/5, eps1=3/10, both=1/10
        rates = (F(1, 4), F(1, 5))
        margin, _ = outer_bound_argmax(rates, JOINT2)
        first = rates[0] / F(3, 5) + rates[1] / F(9, 10)
        second = rates[1] / F(7, 10) + rates[0] / F(9, 10)
        assert margin == max(first, second)

    def test_exhaustive_over_permutations(self):
        rng = random.Random("regions-outer")
        pmf = {}
        remaining = F(1)
        subsets = [(), (0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)]
        for s in subsets[:-1]:
            p = F(rng.randrange(0, 200), 1000)
            p = min(p, remaining)
            pmf[s] = p
            remaining -= p
        pmf[subsets[-1]] = remaining
        model = ErasureModel.joint(3, pmf)
        rates = (F(1, 8), F(1, 16), F(1, 10))
        from itertools import permutations

        best = None
        for perm in permutations(range(3)):
            prefix = EMPTY
            total = F(0)
            for u in perm:
                prefix = prefix | UserSet.of(u)
                total += rates[u] / (1 - epsilon_g(model, prefix))
            best = total if best is None else max(best, total)
        assert outer_bound_margin(rates, model) == best

    def test_degenerate_channel_rejected(self):
        with pytest.raises(DegenerateChannelError):
            outer_bound_margin((0.1, 0.1), ErasureModel.iid(2, 1.0))

    def test_rate_count_must_match(self):
        with pytest.raises(ConfigError):
            outer_bound_margin((0.1,), ErasureModel.iid(2, 0.5))
        with pytest.raises(ConfigError):
            outer_bound_margin((0.1, -0.2), ErasureModel.iid(2, 0.5))


class TestCapacityBound:
    def test_single_user_lossless(self):
        model = ErasureModel.iid(1, 0)
        margin, perm = capacity_bound_argmax((1,), model, 10)
        assert perm == (0,)
        assert margin == pytest.approx(1 - 2**-10 / 10, abs=1e-15)

    def test_penalty_positive_and_shrinking(self):
        model = iid4(F(1, 2))
        rates = (F(1, 5),) * 4
        gaps = []
        for bits in (100, 1000, 10000):
            report = capacity_gap(rates, model, bits)
            assert report["gap"] > 0
            assert report["outer_perm"] == report["capacity_perm"]
            gaps.append(report["gap"])
        assert gaps[0] > gaps[1] > gaps[2]

    def test_margin_is_outer_minus_penalty(self):
        model = iid4(0.5)
        rates = (0.2, 0.2, 0.2, 0.2)
        report = capacity_gap(rates, model, 100)
        assert report["outer_margin"] - report["capacity_margin"] == pytest.approx(
            float(report["gap"]), abs=1e-12
        )

    def test_penalty_formula(self):
        # A = 1/(1-eps) for one user; penalty = 2^(-bits/A) * A / bits
        model = ErasureModel.iid(1, F(1, 2))
        got = exponential_penalty(model, (0,), 64)
        assert float(got) == pytest.approx(2 ** (-32.0) * 2 / 64, rel=1e-9)

    def test_bad_packet_length(self):
        with pytest.raises(ConfigError):
            capacity_bound_argmax((0.1,), ErasureModel.iid(1, 0.5), 0)

    def test_joint_user_never_erased(self):
        # user 0 always receives, so every prefix holding it has eps_g = 0
        # and denominator 1: A = 2 for order (0, 1), 1/(1/2) + 1 = 3 for (1, 0)
        model = ErasureModel.joint(2, {(0,): F(1, 2), (0, 1): F(1, 2)})
        report = capacity_gap((F(1, 5),) * 2, model, 100)
        assert report["outer_perm"] == report["capacity_perm"] == (1, 0)
        assert report["outer_margin"] == F(3, 5)
        assert float(report["gap"]) == pytest.approx(2 ** (-100 / 3) * 3 / 100, rel=1e-12)
        got = exponential_penalty(model, (0, 1), 100)
        assert float(got) == pytest.approx(2.0**-50 * 2 / 100, rel=1e-12)

    def test_prefix_denominators_once_per_order(self, monkeypatch):
        calls = []
        real = regions._prefix_denominators

        def counted(model, perm):
            calls.append(perm)
            return real(model, perm)

        monkeypatch.setattr(regions, "_prefix_denominators", counted)
        capacity_bound_argmax((F(1, 10),) * 4, iid4(F(1, 3)), 64)
        assert len(calls) == 24


LAM4 = (F(23, 100), F(18, 100), F(12, 100), F(8, 100))


def boundary_ray(direction, eps, fill=0.99):
    load = sum(d / (1 - eps ** (k + 1)) for k, d in enumerate(direction))
    return tuple(fill * d / load for d in direction)


class TestPhiConstruction:
    def test_lossless_reduces_to_uncoded_shares(self):
        cert = build_phi_4user((0.4, 0.3, 0.2, 0.1), 0)
        nonzero = {spec: v for spec, v in cert.phi.items() if v}
        assert nonzero == {
            ControlSpec.of(((), (0,))): pytest.approx(0.4),
            ControlSpec.of(((), (1,))): pytest.approx(0.3),
            ControlSpec.of(((), (2,))): pytest.approx(0.2),
            ControlSpec.of(((), (3,))): pytest.approx(0.1),
        }

    def test_exact_rational_point(self):
        rec = build_phi_4user(LAM4, F(1, 2))
        clo = build_phi_4user(LAM4, F(1, 2), method="closed")
        assert set(rec.phi) == set(clo.phi)
        assert len(rec.phi) == 34
        for spec in rec.phi:
            assert rec.phi[spec] == clo.phi[spec]
        identity = sum(LAM4[i] / (1 - F(1, 2) ** (i + 1)) for i in range(4))
        assert rec.total() == identity
        assert not rec.negative()

    @pytest.mark.parametrize("eps", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize(
        "direction", [(4, 3, 2, 1), (1, 1, 1, 1), (10, 1, 1, 1), (5, 5, 1, 1)]
    )
    def test_recursive_matches_closed_on_grid(self, eps, direction):
        rates = boundary_ray(direction, eps)
        rec = build_phi_4user(rates, eps)
        clo = build_phi_4user(rates, eps, method="closed")
        for spec in rec.phi:
            assert rec.phi[spec] == pytest.approx(clo.phi[spec], abs=1e-12)
            assert rec.phi[spec] >= -1e-15
        identity = sum(rates[i] / (1 - eps ** (i + 1)) for i in range(4))
        assert rec.total() == pytest.approx(identity, abs=1e-12)

    def test_certificate_lives_in_curated_catalog(self):
        catalog = enumerate_controls(4, restriction="table8")
        cert = build_phi_4user(LAM4, F(1, 2))
        controls = set(catalog.controls)
        assert all(spec in controls for spec in cert.phi)

    def test_infeasible_rates_rejected(self):
        with pytest.raises(InfeasibleRateError):
            build_phi_4user((0.5, 0.3, 0.2, 0.1), 0.5)

    def test_unsorted_rates_are_relabeled(self):
        shuffled = (F(8, 100), F(23, 100), F(18, 100), F(12, 100))
        cert = build_phi_4user(shuffled, F(1, 2))
        sorted_cert = build_phi_4user(LAM4, F(1, 2))
        # sorted position 0 is real user 1, so user 1 carries the top share
        assert (
            cert.phi[ControlSpec.of(((), (1,)))]
            == sorted_cert.phi[ControlSpec.of(((), (0,)))]
        )
        assert cert.total() == sorted_cert.total()
        report = feasibility_check(
            shuffled,
            cert,
            iid4(F(1, 2)),
            enumerate_controls(4, restriction="table8"),
            tol=0,
        )
        assert report["feasible"]

    def test_bad_eps_rejected(self):
        with pytest.raises(ConfigError):
            build_phi_4user((0.1,) * 4, 1.0)
        with pytest.raises(ConfigError):
            build_phi_4user((0.1,) * 4, 0.5, method="nope")


class TestFeasibilityCheck:
    def test_empty_certificate_zero_rates(self):
        report = feasibility_check(
            (0, 0), FlowCertificate({}), ErasureModel.iid(2, F(1, 2)),
            enumerate_controls(2), tol=0,
        )
        assert report["feasible"]
        assert report["worst_slack"] == 0

    def test_empty_certificate_positive_rates(self):
        report = feasibility_check(
            (F(1, 10), 0), FlowCertificate({}), ErasureModel.iid(2, F(1, 2)),
            enumerate_controls(2), tol=0,
        )
        assert not report["feasible"]
        root = (QueueIndex(EMPTY, UserSet.of(0)), 0)
        assert (root, -F(1, 10)) in report["violations"]

    def two_user_certificate(self):
        return FlowCertificate(
            {
                ControlSpec.of(((), (0,))): F(2, 5),
                ControlSpec.of(((), (1,))): F(2, 5),
                ControlSpec.of(((1,), (0,)), ((0,), (1,))): F(1, 5),
            }
        )

    def test_two_user_boundary_point(self):
        # erasures 1/2 each, 1/4 jointly: rates (3/10, 3/10) sit exactly on
        # the region boundary and the hand-built shares balance every queue
        report = feasibility_check(
            (F(3, 10), F(3, 10)),
            self.two_user_certificate(),
            ErasureModel.iid(2, F(1, 2)),
            enumerate_controls(2),
            tol=0,
        )
        assert report["feasible"]
        assert report["worst_slack"] == 0
        assert report["phi_total"] == 1

    def test_two_user_beyond_boundary(self):
        report = feasibility_check(
            (F(31, 100), F(3, 10)),
            self.two_user_certificate(),
            ErasureModel.iid(2, F(1, 2)),
            enumerate_controls(2),
            tol=0,
        )
        assert not report["feasible"]
        assert report["worst_slack"] < 0
        assert report["violations"]

    def test_four_user_certificate_balances(self):
        model = iid4(F(1, 2))
        catalog = enumerate_controls(4, restriction="table8")
        cert = build_phi_4user(LAM4, F(1, 2))
        report = feasibility_check(LAM4, cert, model, catalog, tol=0)
        assert report["feasible"]
        assert report["worst_slack"] == 0  # roots are exactly balanced

    def test_precomputed_transitions_shortcut(self):
        model = iid4(F(1, 2))
        catalog = enumerate_controls(4, restriction="table8")
        cert = build_phi_4user(LAM4, F(1, 2))
        tables = {spec: derive_transitions(spec, model) for spec in cert.phi}
        report = feasibility_check(
            LAM4, cert, model, catalog, tol=0, transitions=tables
        )
        assert report["feasible"]

    def test_lone_midlevel_control_leaves_unserved_residue(self):
        # a single level-3 pair pushes tokens into deeper queues that no
        # other control drains, so the balance check must reject it
        cert = FlowCertificate({ControlSpec.of(((2,), (0, 1))): F(1, 10)})
        report = feasibility_check(
            (0, 0, 0), cert, ErasureModel.iid(3, F(1, 2)),
            enumerate_controls(3), tol=0,
        )
        assert not report["unknown_controls"]
        assert not report["feasible"]
        assert report["violations"]

    def test_unknown_control_flagged(self):
        cert = FlowCertificate({ControlSpec.of(((2,), (0, 1))): F(1, 10)})
        two_user_only = enumerate_controls(2)
        report = feasibility_check(
            (0, 0, 0), cert, ErasureModel.iid(3, F(1, 2)), two_user_only, tol=0
        )
        assert not report["feasible"]
        assert report["unknown_controls"]

    def test_negative_share_flagged(self):
        cert = FlowCertificate({ControlSpec.of(((), (0,))): -F(1, 10)})
        report = feasibility_check(
            (0, 0), cert, ErasureModel.iid(2, F(1, 2)), enumerate_controls(2),
            tol=0,
        )
        assert not report["feasible"]
        assert report["negative_phi"]

    def test_overcommitted_time_flagged(self):
        # every queue balances, but the shares use 120% of the slots
        cert = FlowCertificate(
            {
                ControlSpec.of(((), (0,))): F(2, 5),
                ControlSpec.of(((), (1,))): F(2, 5),
                ControlSpec.of(((1,), (0,)), ((0,), (1,))): F(2, 5),
            }
        )
        report = feasibility_check(
            (F(1, 10), F(1, 10)), cert, ErasureModel.iid(2, F(1, 2)),
            enumerate_controls(2), tol=0,
        )
        assert not report["feasible"]
        assert report["phi_total"] == F(6, 5)
        assert not report["violations"]


class TestCertificateMemo:
    """feasibility_check keeps the flow-balance rows of its last call and
    build_phi_4user reuses its spec objects; neither may change a verdict."""

    CATALOG = enumerate_controls(4, restriction="table8")

    @staticmethod
    def memo_free(monkeypatch, *args, **kwargs):
        with monkeypatch.context() as m:
            m.setattr(regions, "_rows_of", regions._flow_balance)
            return feasibility_check(*args, **kwargs)

    @staticmethod
    def rays(rng, eps, count, floats=False, shuffle=False):
        out = []
        for _ in range(count):
            weights = sorted(
                (F(rng.randrange(1, 1000), 1000) for _ in range(4)), reverse=True
            )
            load = sum(w / (1 - eps ** (k + 1)) for k, w in enumerate(weights))
            ray = [F(99, 100) * w / load for w in weights]
            if shuffle:
                rng.shuffle(ray)
            out.append(tuple(map(float, ray)) if floats else tuple(ray))
        return out

    def test_rows_built_once_per_transition_set(self, monkeypatch):
        calls = []
        flow_balance = regions._flow_balance

        def counted(edges_of, n_users):
            calls.append(n_users)
            return flow_balance(edges_of, n_users)

        monkeypatch.setattr(regions, "_flow_balance", counted)
        monkeypatch.setattr(regions, "_LAST_ROWS", [None, None])
        eps, model = F(3, 10), iid4(F(3, 10))
        transitions = None
        for rates in self.rays(random.Random("memo-once"), eps, 8):
            cert = build_phi_4user(rates, eps)
            if transitions is None:
                transitions = {s: derive_transitions(s, model) for s in cert.phi}
            verdict = feasibility_check(
                rates, cert, model, self.CATALOG, tol=0, transitions=transitions
            )
            assert verdict["feasible"]
        assert len(calls) == 1

    @pytest.mark.parametrize("landing", ["self-loop", "new-key"])
    def test_tables_edited_in_place_miss_the_memo(self, monkeypatch, landing):
        eps, model = F(1, 2), iid4(F(1, 2))
        cert = build_phi_4user(LAM4, eps)
        transitions = {s: derive_transitions(s, model) for s in cert.phi}
        args = (LAM4, cert, model, self.CATALOG)
        assert feasibility_check(*args, tol=0, transitions=transitions)["feasible"]
        root = ControlSpec.of(((), (0,)))
        node = (QueueIndex(EMPTY, UserSet.of(0)), 0)
        targets = transitions[root][node]
        targets[regions.DELIVERED] -= F(1, 100)
        if landing == "self-loop":
            # user 0's root token now stays put 1/100 more often than it should
            worst = node
        else:
            # ... or lands 1/100 of the time in a queue no control serves
            worst = (QueueIndex(EMPTY, UserSet.from_iterable((0, 1))), 0)
            assert worst not in targets
        targets[worst] = targets.get(worst, 0) + F(1, 100)
        verdict = feasibility_check(*args, tol=0, transitions=transitions)
        assert verdict == self.memo_free(
            monkeypatch, *args, tol=0, transitions=transitions
        )
        assert not verdict["feasible"] and verdict["worst_node"] == worst

    @pytest.mark.parametrize("floats", [False, True], ids=["fraction", "float"])
    def test_verdicts_equal_memo_free_on_random_rays(self, monkeypatch, floats):
        # shuffled rays relabel the users, so one support comes in several
        # orders, and float sums depend on the order of the terms
        rng = random.Random(f"memo-rays-{floats}")
        for eps in (F(0), F(1, 10), F(1, 2), F(7, 10)):
            model = iid4(eps)
            # catalog-keyed tables, as the CLI passes them, and no tables
            catalog_tables = {s: derive_transitions(s, model) for s in self.CATALOG}
            for rates in self.rays(rng, eps, 10, floats=floats, shuffle=True):
                cert = build_phi_4user(rates, float(eps) if floats else eps)
                for transitions in (catalog_tables, None):
                    args = (rates, cert, model, self.CATALOG)
                    verdict = feasibility_check(*args, transitions=transitions)
                    assert verdict == self.memo_free(
                        monkeypatch, *args, transitions=transitions
                    )
                    assert verdict["feasible"]

    def test_missing_control_named(self):
        model = iid4(F(1, 2))
        cert = build_phi_4user(LAM4, F(1, 2))
        transitions = {s: derive_transitions(s, model) for s in cert.phi}
        dropped = ControlSpec.of(((1,), (0,)), ((0,), (1,)))
        del transitions[dropped]
        with pytest.raises(ValueError) as err:
            feasibility_check(LAM4, cert, model, self.CATALOG, transitions=transitions)
        want = f"transitions lack the certificate's control {dropped!r}"
        assert str(err.value) == want

    def test_same_order_shares_spec_objects(self, monkeypatch):
        shuffled = (F(8, 100), F(23, 100), F(18, 100), F(12, 100))
        first = build_phi_4user(shuffled, F(1, 2))
        halved = tuple(r / 2 for r in shuffled)
        again = build_phi_4user(halved, F(1, 3), method="closed")
        assert all(a is b for a, b in zip(first.phi, again.phi, strict=True))
        monkeypatch.setattr(regions, "_SPEC_OF", {})
        fresh = build_phi_4user(shuffled, F(1, 2))
        for spec, new in zip(first.phi, fresh.phi, strict=True):
            assert spec == new and spec is not new
        assert fresh.phi == first.phi


class TestFlowChecksAgree:
    """feasibility_check and build_flow_polyhedron read one flow balance:
    the polyhedron holds a certificate's point exactly when the check
    accepts it."""

    @staticmethod
    def agree(rates, cert, model, catalog):
        report = feasibility_check(rates, cert, model, catalog, tol=0)
        poly, var_of = build_flow_polyhedron(model, catalog)
        point = {var_of[spec]: share for spec, share in cert.phi.items()}
        point.update((f"lam{i}", r) for i, r in enumerate(rates))
        assert poly.contains(point, tol=0) == report["feasible"]
        return report["feasible"]

    @pytest.mark.parametrize(
        "rates, feasible",
        [((F(3, 10), F(3, 10)), True), ((F(31, 100), F(3, 10)), False)],
        ids=["boundary", "beyond"],
    )
    def test_two_user_certificate(self, rates, feasible):
        cert = TestFeasibilityCheck().two_user_certificate()
        model = ErasureModel.iid(2, F(1, 2))
        assert self.agree(rates, cert, model, enumerate_controls(2)) == feasible

    def test_four_user_table8_certificate(self):
        cert = build_phi_4user(LAM4, F(1, 2))
        catalog = enumerate_controls(4, restriction="table8")
        assert self.agree(LAM4, cert, iid4(F(1, 2)), catalog)


@st.composite
def edge_tables(draw):
    """n ≤ 3 and {control: {node: {target: p}}}: Fraction and float p,
    self-loops, deliveries and landings on nodes no table lists."""
    n = draw(st.integers(1, 3))
    nodes = [(qi, i) for qi in _queue_space(n)[0] for i in qi.destinations]
    prob = st.one_of(st.fractions(0, 1, max_denominator=60), st.floats(0, 1))
    controls = st.lists(
        st.sampled_from(list(enumerate_controls(n))), unique=True, max_size=3
    )
    edges_of = {}
    for spec in draw(controls):
        listed = draw(st.lists(st.sampled_from(nodes), unique=True, max_size=4))
        edges_of[spec] = {}
        for node in listed:
            targets = st.sampled_from([*nodes, DELIVERED])
            edges = draw(st.dictionaries(targets, prob, max_size=4))
            if draw(st.booleans()):
                edges[node] = draw(prob)
            edges_of[spec][node] = edges
    return n, edges_of


class TestFlowBalance:
    """_flow_balance's int rows are the plain Fraction sums of the edges."""

    @staticmethod
    def reference(edges_of, n):
        net = {(QueueIndex(EMPTY, UserSet.of(i)), i): {} for i in range(n)}
        for spec, per_node in edges_of.items():
            for node, targets in per_node.items():
                for target, p in targets.items():
                    if target == node:
                        continue
                    out = net.setdefault(node, {})
                    out[spec] = out.get(spec, 0) - F(p)
                    if target != DELIVERED:
                        into = net.setdefault(target, {})
                        into[spec] = into.get(spec, 0) + F(p)
        rows = []
        for node in sorted(net, key=lambda n: (n[0].sort_key(), n[1])):
            qi, i = node
            root = i if qi == QueueIndex(EMPTY, UserSet.of(i)) else None
            rows.append((node, root, {s: c for s, c in net[node].items() if c}))
        return rows

    @settings(max_examples=100, deadline=None)
    @given(edge_tables())
    def test_int_rows_equal_fraction_sums(self, table):
        n, edges_of = table
        scale, controls, rows = regions._flow_balance(edges_of, n)
        assert len(set(controls)) == len(controls)
        got = [
            (node, root, {controls[k]: F(c, scale) for k, c in row if c})
            for node, root, row in rows
        ]
        assert got == self.reference(edges_of, n)
        assert sorted(root for _, root, _ in rows if root is not None) == list(range(n))


class TestExactReading:
    """feasibility_check reads every share and rate at its exact value."""

    CATALOG = enumerate_controls(4, restriction="table8")

    @pytest.mark.parametrize("fill", [F(99, 100), F(101, 100)], ids=["in", "beyond"])
    def test_float_certificate_checked_as_its_fractions(self, fill):
        # the certificate is built at 99/100; at 101/100 the roots overflow
        rng = random.Random(f"exact-reading-{fill}")
        for eps in (0.1, 0.25, 0.5, 0.9):
            model = iid4(eps)
            for _ in range(10):
                weights = sorted((rng.randrange(1, 1000) for _ in range(4)), reverse=True)
                rates = boundary_ray(weights, eps)
                cert = build_phi_4user(rates, eps)
                over = tuple(r * float(fill / F(99, 100)) for r in rates)
                twin = FlowCertificate({s: F(v) for s, v in cert.phi.items()})
                for tol in (0, 1e-9):
                    got = feasibility_check(over, cert, model, self.CATALOG, tol=tol)
                    want = feasibility_check(
                        tuple(map(F, over)), twin, model, self.CATALOG, tol=tol
                    )
                    assert type(got["worst_slack"]) is F
                    assert got["phi_total"] == pytest.approx(want["phi_total"])
                    del got["phi_total"], want["phi_total"]
                    assert got == want


def _relabel_node(node, perm):
    qi, user = node
    listeners, destinations = (
        UserSet.from_iterable(perm[u] for u in s) for s in (qi.listeners, qi.destinations)
    )
    return QueueIndex(listeners, destinations), perm[user]


class TestRelabeling:
    """Renaming the users renames the certificate check and the outer bound."""

    CATALOG = enumerate_controls(4, restriction="table8")

    @settings(max_examples=50, deadline=None)
    @given(
        perm=st.permutations(range(4)),
        weights=st.lists(st.integers(1, 999), min_size=4, max_size=4),
        tenth=st.integers(0, 9),
        fill=st.sampled_from([F(99, 100), F(101, 100)]),
    )
    def test_verdict_and_margin_invariant(self, perm, weights, tenth, fill):
        eps = F(tenth, 10)
        model = iid4(eps)
        rates = boundary_ray(sorted(weights, reverse=True), eps, F(99, 100))
        moved = [None] * 4
        for u, r in enumerate(rates):
            moved[perm[u]] = r
        # the certificate is built at 99/100; at 101/100 the roots overflow
        over = tuple(r * fill / F(99, 100) for r in rates)
        moved_over = tuple(r * fill / F(99, 100) for r in moved)
        base = feasibility_check(
            over, build_phi_4user(rates, eps), model, self.CATALOG, tol=0
        )
        got = feasibility_check(
            moved_over, build_phi_4user(moved, eps), model, self.CATALOG, tol=0
        )
        assert got["feasible"] == base["feasible"]
        assert got["worst_slack"] == base["worst_slack"]
        assert sorted(got["violations"], key=repr) == sorted(
            ((_relabel_node(n, perm), v) for n, v in base["violations"]), key=repr
        )
        assert outer_bound_margin(moved, model) == outer_bound_margin(rates, model)


def ineq(coeffs, rhs):
    return LinearIneq.of(coeffs, rhs)


class TestFourierMotzkin:
    def test_simple_band(self):
        poly = Polyhedron.of(
            [
                ineq({"x": 1}, 1),
                ineq({"x": -1}, 0),
                ineq({"y": 1, "x": -1}, 0),
                ineq({"y": -1}, 0),
            ]
        )
        out = fm_eliminate(poly, "x", tol=0)
        assert out.inequalities == (ineq({"y": F(1)}, F(1)),)

    def test_absent_variable_is_noop_modulo_normalization(self):
        poly = Polyhedron.of([ineq({"a": 2}, 4), ineq({"b": -1}, 0)])
        out = fm_eliminate(poly, "zzz", tol=0)
        assert {tuple(i.coeffs) for i in out.inequalities} == {
            (("a", F(1, 2)),),
        }  # -b <= 0 is vacuous once b is known nonnegative

    def test_contradiction_surfaces(self):
        poly = Polyhedron.of([ineq({"x": 1}, -1), ineq({"x": -1}, 0)])
        out = fm_eliminate(poly, "x", tol=0, assume_nonneg=False)
        assert [i for i in out.inequalities if not i.coeffs and i.rhs < 0]

    def test_dominated_row_dropped(self):
        poly = Polyhedron.of(
            [
                ineq({"x": 2, "y": 3}, 1),
                ineq({"x": 1, "y": 1}, 1),  # dominated: smaller everywhere
                ineq({"x": 3, "y": 1}, 1),
            ]
        )
        out = fm_eliminate(poly, "unused", tol=0)
        assert len(out.inequalities) == 2

    def test_projection_agrees_with_direct_check(self):
        rng = random.Random("fm-project")
        for _ in range(20):
            rows = []
            for _ in range(6):
                coeffs = {
                    v: rng.randint(-3, 3) for v in ("x", "y", "z")
                }
                rows.append(ineq(coeffs, rng.randint(1, 5)))
            poly = Polyhedron.of(rows)
            proj = fm_eliminate(poly, "z", assume_nonneg=False, tol=0)
            for _ in range(50):
                point = {
                    "x": F(rng.randint(-50, 50), 10),
                    "y": F(rng.randint(-50, 50), 10),
                }
                lo, hi = None, None
                ok = True
                for row in rows:
                    az = row.coeff("z")
                    rest = row.evaluate(point)
                    if az == 0:
                        ok = ok and rest <= row.rhs
                        continue
                    bound = (row.rhs - rest) / az
                    if az > 0:
                        hi = bound if hi is None else min(hi, bound)
                    else:
                        lo = bound if lo is None else max(lo, bound)
                direct = ok and (lo is None or hi is None or lo <= hi)
                assert proj.contains(point, tol=0) == direct

    def test_two_user_flow_system_projects_to_known_region(self):
        catalog = enumerate_controls(2)
        poly, var_of = build_flow_polyhedron(JOINT2, catalog)
        assert len(poly.inequalities) == 4 + 1 + len(catalog)
        order = [
            ControlSpec.of(((1,), (0,)), ((0,), (1,))),
            ControlSpec.of(((0,), (1,))),
            ControlSpec.of(((1,), (0,))),
            ControlSpec.of(((), (1,))),
            ControlSpec.of(((), (0,))),
        ]
        for spec in order:
            poly = fm_eliminate(poly, var_of[spec], tol=0)
        # erasures: eps0=2/5, eps1=3/10, both=1/10
        expected = {
            ineq({"lam0": F(5, 3), "lam1": F(10, 9)}, F(1)),
            ineq({"lam0": F(10, 9), "lam1": F(10, 7)}, F(1)),
        }
        assert set(poly.inequalities) == expected
        assert not [i for i in poly.inequalities if not i.coeffs and i.rhs < 0]

    def test_iid_flow_system_matches_symmetric_region(self):
        catalog = enumerate_controls(2)
        model = ErasureModel.iid(2, F(1, 2))
        poly, var_of = build_flow_polyhedron(model, catalog)
        for spec in sorted(var_of, key=lambda s: var_of[s], reverse=True):
            poly = fm_eliminate(poly, var_of[spec], tol=0)
        expected = {
            ineq({"lam0": F(2), "lam1": F(4, 3)}, F(1)),
            ineq({"lam0": F(4, 3), "lam1": F(2)}, F(1)),
        }
        assert set(poly.inequalities) == expected
        # the symmetric boundary point of that region
        assert poly.contains({"lam0": F(3, 10), "lam1": F(3, 10)}, tol=0)
        assert not poly.contains({"lam0": F(31, 100), "lam1": F(3, 10)}, tol=0)


def pairwise_simplify(ineqs, *, assume_nonneg=True, tol=1e-9):
    """Reference for ``simplify_inequalities``: the same normalisation and
    deduplication, then dominance checked over every ordered pair."""
    kept = normalised_rows(ineqs, assume_nonneg, tol)
    return pairwise_dominance(kept, tol) if assume_nonneg else kept


def normalised_rows(ineqs, assume_nonneg, tol):
    kept = []
    seen = set()
    for row in ineqs:
        if not row.coeffs:
            if row.rhs < -tol:
                kept.append(row)
            continue
        if assume_nonneg and row.rhs >= 0 and all(c <= 0 for _, c in row.coeffs):
            continue
        norm = row.normalized()
        key = (norm.coeffs, str(norm.rhs))
        if key not in seen:
            seen.add(key)
            kept.append(norm)
    return kept


def pairwise_dominance(kept, tol):
    out = []
    for idx, b in enumerate(kept):
        bv = b.as_dict()
        dominated = False
        for jdx, a in enumerate(kept):
            if b.rhs <= tol:
                break
            if jdx == idx or a.rhs <= tol:
                continue
            av = a.as_dict()
            names = set(av) | set(bv)
            if all(av.get(v, 0) >= bv.get(v, 0) - tol for v in names):
                strict = any(av.get(v, 0) > bv.get(v, 0) + tol for v in names)
                if strict or jdx < idx:
                    dominated = True
                    break
        if not dominated:
            out.append(b)
    return out


def random_rows(rng, exact):
    """Rows over four variables whose coefficients repeat often and sit on
    both sides of each tolerance, so ties and near-ties are common."""
    if exact:
        values = [F(k, 4) for k in range(-4, 9)] + [F(1, 10**10), F(-1, 20)]
        nudges = [F(1, 10**10), F(-1, 10**10), F(3, 100), F(-3, 100)]
        rhs_values = [F(-1), F(0), F(1), F(2), F(1, 2)]
    else:
        values = [k / 4 for k in range(-4, 9)] + [1e-10, -0.05, 0.03]
        nudges = [1e-10, -1e-10, 0.03, -0.03]
        rhs_values = [-1.0, 0.0, 1.0, 2.0, 0.5]
    rows = []
    for _ in range(rng.randrange(1, 25)):
        if rows and rng.random() < 0.3:
            # a near copy of an earlier row: one coefficient nudged
            base = rng.choice(rows)
            coeffs = base.as_dict()
            v = rng.choice("wxyz")
            coeffs[v] = coeffs.get(v, 0) + rng.choice(nudges)
            rows.append(LinearIneq.of(coeffs, base.rhs))
            continue
        coeffs = {v: rng.choice(values) for v in "wxyz" if rng.random() < 0.6}
        if rng.random() < 0.3:
            coeffs = {v: abs(c) for v, c in coeffs.items()}
        rows.append(LinearIneq.of(coeffs, rng.choice(rhs_values)))
    return rows


class TestSimplifyInequalities:
    @pytest.mark.parametrize("tol", [0, 1e-9, 0.05])
    @pytest.mark.parametrize("exact", [True, False])
    def test_matches_pairwise_reference(self, tol, exact):
        rng = random.Random(f"simplify/{tol}/{exact}")
        dominated = 0
        for _ in range(300):
            rows = random_rows(rng, exact)
            for nonneg in (True, False):
                want = pairwise_simplify(rows, assume_nonneg=nonneg, tol=tol)
                got = regions.simplify_inequalities(
                    rows, assume_nonneg=nonneg, tol=tol
                )
                assert got == want
            kept = normalised_rows(rows, True, tol)
            dominated += len(kept) - len(pairwise_dominance(kept, tol))
        assert dominated > 100  # the dominance pass did real work

    def test_contradictions_kept_in_place(self):
        rows = [
            ineq({"x": 1}, 1),
            LinearIneq.of({}, -1),
            ineq({"x": 2}, 1),
            LinearIneq.of({}, 0),
        ]
        got = regions.simplify_inequalities(rows, tol=0)
        assert got == pairwise_simplify(rows, tol=0)
        assert got == [LinearIneq.of({}, -1), ineq({"x": F(2)}, F(1))]
