"""Analytical layer: permutation outer bounds, the finite-packet-length
capacity bound, the hand-constructed 4-user flow certificate, generic
flow-balance feasibility checking, and Fourier-Motzkin projection.

Erasure probabilities are exact, as an erasure model holds them; rates may
be floats or exact rationals, and with Fraction rates every comparison is
exact; the certificate check reads every input exactly, floats included.

The certificate check and the flow polyhedron read one exact int build of
the flow balance, ``_flow_balance``; the check reuses its last build while
its transition tables are equal by value, so a table edited in place misses.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import combinations, permutations
from math import ceil
from typing import Mapping, Optional, Sequence

from .channel import ErasureModel, epsilon_g
from .coding import ControlCatalog, ControlSpec
from .core import EMPTY, ConfigError, QueueIndex, UserSet
from .scheduler import DELIVERED, derive_transitions, scaled_ints

# rates are plain sequences, one entry per user
RateVector = Sequence


class DegenerateChannelError(ConfigError, ValueError):
    """Some user group is erased with probability 1."""


class InfeasibleRateError(ConfigError, ValueError):
    """The requested rates lie outside the achievable region."""


def _validate_rates(rates, n_users):
    if len(rates) != n_users:
        raise ConfigError("one rate per user required")
    if any(r < 0 for r in rates):
        raise ConfigError("rates must be nonnegative")


# --- permutation bounds -----------------------------------------------------


def _prefix_denominators(model: ErasureModel, perm):
    denoms = []
    prefix = EMPTY
    for u in perm:
        prefix = prefix | UserSet.of(u)
        denom = 1 - epsilon_g(model, prefix)
        if denom <= 0:
            raise DegenerateChannelError(f"group {prefix!r} never receives")
        denoms.append(denom)
    return denoms


def _best_order(rates: RateVector, model: ErasureModel, penalty=None):
    """Largest weighted rate sum over service orders, less penalty(denoms)
    of the order's prefix denominators when given, with its argmax."""
    best = best_perm = None
    for perm in permutations(range(model.n_users)):
        denoms = _prefix_denominators(model, perm)
        total = 0
        for u, denom in zip(perm, denoms):
            total = total + rates[u] / denom
        if penalty is not None:
            total -= penalty(denoms)
        if best is None or total > best:
            best, best_perm = total, perm
    return best, best_perm


def outer_bound_argmax(rates: RateVector, model: ErasureModel):
    """Largest weighted rate sum over service orders, with its argmax."""
    _validate_rates(rates, model.n_users)
    return _best_order(rates, model)


def outer_bound_margin(rates: RateVector, model: ErasureModel):
    """Rates are supportable by any policy only if this margin is <= 1."""
    return outer_bound_argmax(rates, model)[0]


def exponential_penalty(model: ErasureModel, perm, bits) -> Decimal:
    """Slack term a finite packet length leaves against the outer bound.

    Returned as a Decimal: for realistic packet lengths the value sits far
    below the smallest positive double, yet must stay positive and ordered.
    """
    return _penalty(_prefix_denominators(model, perm), bits)


def _penalty(denoms, bits) -> Decimal:
    a = sum(1 / d for d in denoms)
    with localcontext() as ctx:
        ctx.prec = 40
        da = Decimal(a.numerator) / Decimal(a.denominator)
        db = Decimal(bits)
        exponent = -db / da * Decimal(2).ln()
        return exponent.exp() * da / db


def capacity_bound_argmax(rates: RateVector, model: ErasureModel, bits):
    """Finite-length capacity margin (information bits per packet slot)."""
    _validate_rates(rates, model.n_users)
    if bits <= 0:
        raise ConfigError("packet length must be positive")
    return _best_order(rates, model, lambda d: float(_penalty(d, bits)))


def capacity_gap(rates: RateVector, model: ErasureModel, bits) -> dict:
    """How far the finite-length bound sits below the infinite-length one."""
    outer, outer_perm = outer_bound_argmax(rates, model)
    cap, cap_perm = capacity_bound_argmax(rates, model, bits)
    return {
        "outer_margin": outer,
        "capacity_margin": cap,
        "outer_perm": outer_perm,
        "capacity_perm": cap_perm,
        "gap": exponential_penalty(model, cap_perm, bits),
    }


# --- 4-user flow certificate ------------------------------------------------


@dataclass(frozen=True)
class FlowCertificate:
    """Nonnegative time share per control; total at most one slot."""

    phi: Mapping[ControlSpec, object]

    def total(self):
        return sum(self.phi.values())

    def negative(self):
        return [spec for spec, v in self.phi.items() if v < 0]


def _pair(a, b):
    return (a, b) if a < b else (b, a)


class _PhiTables:
    """Per-family flow values on sorted user labels 0..3 (rate-descending).
    φ1, φ2 and φ31 depend only on the top user i of their pairs; one, two
    and three give them per i."""

    def __init__(self, one, two, three):
        pairs = list(combinations(range(4), 2))
        self.phi1 = dict(enumerate(one))
        self.phi2 = {(i, j): two[i] for i, j in pairs}
        self.phi31 = {
            ((i, j), k): three[i] for i, j in pairs for k in range(4) if k not in (i, j)
        }
        self.phi33 = {}
        self.phi41 = {}
        self.phi42 = {}
        self.phi44 = 0


def _phi_recursive(lam, eps) -> _PhiTables:
    e = eps
    e2, e3 = e**2, e**3
    # one level deeper: φ2 from φ1, φ31 from φ2, φ41 from its inflow
    step = e3 * (1 - e) / (1 - e3)
    # balance weights of the swap and half-swap controls' queues
    swap, half = e2 * (1 - e) ** 2 / (1 - e2), e2 * (1 - e) / (1 - e2)
    d4 = 1 - e**4
    one = [x / d4 for x in lam]
    two = [step * x for x in one]
    t = _PhiTables(one, two, [step * x for x in two])

    def swap_term(a, b, c):
        # balance at the two-listener queue of user a within {a, b, c}
        own = t.phi1[a] + t.phi2[_pair(a, b)] + t.phi2[_pair(a, c)]
        mixed = t.phi31[(_pair(a, b), c)] + t.phi31[(_pair(a, c), b)]
        return swap * own + half * mixed - t.phi31[(_pair(b, c), a)]

    # inflow[tri]: φ31 over the three splits of the triple plus its φ33, the
    # sum that φ41 and the half and full swap balances read
    inflow = {}
    for tri in combinations(range(4), 3):
        i, j, k = tri
        t.phi33[tri] = max(swap_term(i, j, k), swap_term(j, i, k), swap_term(k, i, j))
        inflow[tri] = (
            t.phi31[((i, j), k)]
            + t.phi31[((i, k), j)]
            + t.phi31[((j, k), i)]
            + t.phi33[tri]
        )
        t.phi41[tri] = step * inflow[tri]

    def half_term(x, y):
        tris = [tuple(sorted(x + (v,))) for v in y]
        own = t.phi2[x] + sum(inflow[tri] for tri in tris)
        return swap * own + half * sum(t.phi41[tri] for tri in tris)

    for part in [((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2))]:
        a, b = part
        t.phi42[part] = max(half_term(a, b), half_term(b, a))
    part_in = e * sum(t.phi42.values())

    def full_term(u):
        others = tuple(v for v in range(4) if v != u)
        tris = [tuple(sorted((u, a, b))) for a, b in combinations(others, 2)]
        own = t.phi1[u] + sum(t.phi2[_pair(u, a)] for a in others)
        return (
            e * (1 - e) ** 2 * (own + sum(inflow[tri] for tri in tris))
            + e * (1 - e) * sum(t.phi41[tri] for tri in tris)
            + part_in
            - t.phi41[others]
        )

    t.phi44 = max(full_term(u) for u in range(4))
    return t


def _phi_closed(lam, eps) -> _PhiTables:
    e = eps
    e2, e3, e4 = e**2, e**3, e**4
    d4 = 1 - e4
    q = d4 * (1 + e + e2) ** 2
    c2 = e3 * (1 - e) / ((1 - e3) * d4)
    c31 = e3 * e3 * (1 - e) ** 2 / ((1 - e3) ** 2 * d4)
    t = _PhiTables(
        [x / d4 for x in lam], [c2 * x for x in lam], [c31 * x for x in lam]
    )
    # φ33 = a·λi − b·λj, φ41 = c·λi for i the top user of the triple
    a33, b33, c41 = e2 * (d4 + e2) / q, e2 * e4 / q, e4 * e * (1 - e + e2) / q
    a, b, c = ([coef * x for x in lam] for coef in (a33, b33, c41))
    for i, j, k in combinations(range(4), 3):
        t.phi33[(i, j, k)] = a[i] - b[j]
        t.phi41[(i, j, k)] = c[i]
    phi42 = e4 * (2 - e + 2 * e2 - e4) * lam[0] / (q * (1 + e))
    for part in [((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2))]:
        t.phi42[part] = phi42
    top = 1 + e + 3 * e2 - 2 * e3 + 4 * e4 - 3 * e4 * e + e3 * e3 + e4 * e3
    t.phi44 = e * (lam[0] * top - lam[1] * (e4 + e4 * e3)) / (q * (1 + e))
    return t


# (relabel, pair pattern) -> spec, so equal specs of one order are one object
_SPEC_OF: dict = {}


def _assemble(t: _PhiTables, relabel: tuple) -> FlowCertificate:
    phi = {}

    def emit(pairs, value):
        spec = _SPEC_OF.get((relabel, pairs))
        if spec is None:
            spec = _SPEC_OF[relabel, pairs] = ControlSpec.of(
                *(
                    (tuple(relabel[u] for u in l), tuple(relabel[u] for u in d))
                    for l, d in pairs
                )
            )
        phi[spec] = value

    for i, v in t.phi1.items():
        emit((((), (i,)),), v)
    for (i, j), v in t.phi2.items():
        emit((((j,), (i,)), ((i,), (j,))), v)
    for ((i, j), k), v in t.phi31.items():
        emit((((k,), (i, j)), ((i, j), (k,))), v)
    for (i, j, k), v in t.phi33.items():
        emit((((j, k), (i,)), ((i, k), (j,)), ((i, j), (k,))), v)
    for tri, v in t.phi41.items():
        (l,) = tuple(u for u in range(4) if u not in tri)
        emit((((l,), tri), (tri, (l,))), v)
    for (a, b), v in t.phi42.items():
        emit(((b, a), (a, b)), v)
    others = tuple((tuple(v for v in range(4) if v != u), (u,)) for u in range(4))
    emit(others, t.phi44)
    return FlowCertificate(phi)


def build_phi_4user(
    rates: RateVector, eps, *, method: str = "recursive"
) -> FlowCertificate:
    """Explicit stabilizing time-share assignment for 4 users, equal
    independent erasure probability eps, rates inside the bound."""
    rates = tuple(rates)
    _validate_rates(rates, 4)
    if not 0 <= eps < 1:
        raise ConfigError(f"erasure probability {eps} outside [0, 1)")
    order = tuple(sorted(range(4), key=lambda u: rates[u], reverse=True))
    lam = tuple(rates[u] for u in order)
    load = sum(lam[i] / (1 - eps ** (i + 1)) for i in range(4))
    if load > 1:
        raise InfeasibleRateError(f"weighted load {load} exceeds 1")
    if method == "recursive":
        tables = _phi_recursive(lam, eps)
    elif method == "closed":
        tables = _phi_closed(lam, eps)
    else:
        raise ConfigError(f"unknown method {method!r}")
    return _assemble(tables, relabel=order)


# --- generic flow-balance feasibility ---------------------------------------


def _flow_balance(edges_of: Mapping, n_users: int) -> tuple:
    """The flow-balance rows in int form: (M, controls in order of first
    use, per node in node order (node, the user whose arrivals enter there
    or None, [(control position, net inflow·M)])), every user's root queue
    included.  Net inflow is inflow from other nodes less outflow; each
    edge's p is read exactly, a float as Fraction(p), and M is the least
    common denominator of the edges.  edges_of maps each control to its
    transition edges."""
    edges = [
        (spec, node, target, Fraction(p))
        for spec, per_node in edges_of.items()
        for node, targets in per_node.items()
        for target, p in targets.items()
        if target != node
    ]
    scale, ints = scaled_ints([p for *_, p in edges])
    net = defaultdict(Counter)
    for (spec, node, target, _), w in zip(edges, ints):
        net[node][spec] -= w
        if target != DELIVERED:
            net[target][spec] += w
    roots = {(QueueIndex(EMPTY, UserSet.of(i)), i): i for i in range(n_users)}
    at: dict = {}
    rows = []
    for node in sorted(net.keys() | roots, key=lambda n: (n[0].sort_key(), n[1])):
        row = [(at.setdefault(spec, len(at)), w) for spec, w in net[node].items()]
        rows.append((node, roots.get(node), row))
    return scale, list(at), rows


# (inputs, rows) of the last build; the inputs copy the tables down to each
# node's targets and hold the caller's own p, so a hit copies nothing
_LAST_ROWS: list = [None, None]


def _rows_of(edges_of: Mapping, n_users: int) -> tuple:
    """_flow_balance(edges_of, n_users), built once for equal inputs in a
    row: inputs are matched by value, so a table edited in place misses."""
    if _LAST_ROWS[0] != (n_users, edges_of):
        snapshot = {
            spec: {node: dict(targets) for node, targets in edges.items()}
            for spec, edges in edges_of.items()
        }
        _LAST_ROWS[:] = (n_users, snapshot), _flow_balance(edges_of, n_users)
    return _LAST_ROWS[1]


def feasibility_check(
    rates: RateVector,
    certificate: FlowCertificate,
    model: ErasureModel,
    catalog: ControlCatalog,
    *,
    tol=1e-9,
    transitions: Optional[dict] = None,
) -> dict:
    """Verify arrival + inflow <= outflow at every virtual queue under the
    certificate's time shares; report the worst slack.  transitions maps
    controls to derive_transitions' edges as plain dicts, compared by value
    (edits in place are seen); a control with a nonzero share missing from
    it raises ValueError.  Shares, rates and edges are read exactly, a float
    as Fraction(x), so slacks are Fractions for every input type, and at
    tol=0 a float's rounding can decide."""
    _validate_rates(rates, model.n_users)
    unknown = [spec for spec in certificate.phi if spec not in catalog.control_set]
    shares = {spec: share for spec, share in certificate.phi.items() if share}
    if transitions is None:
        transitions = {spec: derive_transitions(spec, model) for spec in shares}
    for spec in shares:
        if spec not in transitions:
            raise ValueError(f"transitions lack the certificate's control {spec!r}")
    edges_of = {spec: transitions[spec] for spec in shares}
    scale, specs, rows = _rows_of(edges_of, model.n_users)
    # each slack times unit·scale is an int, with shares and rates over unit
    values = [Fraction(shares[spec]) for spec in specs] + [Fraction(r) for r in rates]
    unit, ints = scaled_ints(values)
    arrivals = [r * scale for r in ints[len(specs):]]
    slacks = [
        -sum(ints[k] * c for k, c in row) - (0 if root is None else arrivals[root])
        for _node, root, row in rows
    ]
    denom = unit * scale
    worst = min(range(len(rows)), key=slacks.__getitem__)  # the first lowest
    worst_node, worst_slack = rows[worst][0], Fraction(slacks[worst], denom)
    # an int w has w/denom < -tol exactly when w < ceil(-tol·denom)
    limit = ceil(-Fraction(tol) * denom)
    violations = [
        (node, Fraction(w, denom)) for (node, *_), w in zip(rows, slacks) if w < limit
    ]
    negative = certificate.negative()
    total = certificate.total()
    feasible = (
        not violations and not negative and not unknown and total <= 1 + tol
    )
    return {
        "feasible": feasible,
        "worst_node": worst_node,
        "worst_slack": worst_slack,
        "violations": violations,
        "negative_phi": negative,
        "unknown_controls": unknown,
        "phi_total": total,
    }


# --- Fourier-Motzkin --------------------------------------------------------


def _iszero(x, tol) -> bool:
    return -tol <= x <= tol


def _div(a, b):
    """Division that keeps integer inputs exact instead of going float."""
    if isinstance(a, int) and isinstance(b, int):
        return Fraction(a, b)
    return a / b


@dataclass(frozen=True)
class LinearIneq:
    """sum(coeff * var) <= rhs; zero coefficients are never stored."""

    coeffs: tuple
    rhs: object

    @classmethod
    def of(cls, coeffs: Mapping[str, object], rhs, tol=0) -> "LinearIneq":
        kept = tuple(
            sorted((v, c) for v, c in coeffs.items() if not _iszero(c, tol))
        )
        return cls(kept, rhs)

    def coeff(self, var):
        for v, c in self.coeffs:
            if v == var:
                return c
        return 0

    def as_dict(self) -> dict:
        return dict(self.coeffs)

    @property
    def variables(self):
        return [v for v, _ in self.coeffs]

    def normalized(self) -> "LinearIneq":
        """Scale by a positive factor: rhs 1 when possible, else unit peak."""
        if self.rhs > 0:
            return LinearIneq.of(
                {v: _div(c, self.rhs) for v, c in self.coeffs},
                _div(self.rhs, self.rhs),
            )
        if not self.coeffs:
            return self
        peak = max(abs(c) for _, c in self.coeffs)
        return LinearIneq.of(
            {v: _div(c, peak) for v, c in self.coeffs}, _div(self.rhs, peak)
        )

    def evaluate(self, point: Mapping[str, object]):
        return sum(c * point.get(v, 0) for v, c in self.coeffs)


@dataclass(frozen=True)
class Polyhedron:
    inequalities: tuple

    @classmethod
    def of(cls, ineqs) -> "Polyhedron":
        return cls(tuple(ineqs))

    def variables(self) -> list[str]:
        seen: dict = {}
        for ineq in self.inequalities:
            for v in ineq.variables:
                seen[v] = True
        return sorted(seen)

    def contains(self, point: Mapping[str, object], tol=1e-9) -> bool:
        return all(i.evaluate(point) <= i.rhs + tol for i in self.inequalities)


def simplify_inequalities(
    ineqs, *, assume_nonneg: bool = True, tol=1e-9
) -> list[LinearIneq]:
    kept: list[LinearIneq] = []
    seen = set()
    for ineq in ineqs:
        if not ineq.coeffs:
            if ineq.rhs >= -tol:
                continue  # vacuous
            kept.append(ineq)  # contradiction: keep visible
            continue
        if assume_nonneg and ineq.rhs >= 0 and all(c <= 0 for _, c in ineq.coeffs):
            continue  # vacuous under nonnegative variables
        norm = ineq.normalized()
        key = (norm.coeffs, str(norm.rhs))
        if key in seen:
            continue
        seen.add(key)
        kept.append(norm)
    if not assume_nonneg:
        return kept
    # dominance for unit-rhs rows: on nonnegative points a row with larger
    # coefficients everywhere is the tighter constraint.  Row a can dominate
    # row b only if a > 0 wherever b - tol > 0 and a < -tol only where b < 0,
    # so per-variable bitmasks over row indexes pick the rows worth checking.
    rows = [a.as_dict() for a in kept]
    unit, positive_at, below_at = 0, {}, {}
    for idx, (a, av) in enumerate(zip(kept, rows)):
        if a.rhs > tol:
            unit |= 1 << idx
            for v, c in av.items():
                if c > 0:
                    positive_at[v] = positive_at.get(v, 0) | 1 << idx
                if c < -tol:
                    below_at[v] = below_at.get(v, 0) | 1 << idx
    # c - tol is c itself for an exact zero tol; a float 0.0 makes c a float
    shifted = tol != 0 or isinstance(tol, float)
    out: list[LinearIneq] = []
    for idx, b in enumerate(kept):
        if not unit >> idx & 1:
            out.append(b)
            continue
        bv = rows[idx]
        low = {v: c - tol for v, c in bv.items()} if shifted else bv
        candidates = unit & ~(1 << idx)
        for v, t in low.items():
            if t > 0:
                candidates &= positive_at.get(v, 0)
        for v, mask in below_at.items():
            if not bv.get(v, 0) < 0:
                candidates &= ~mask
        high = None
        while candidates:
            jdx = (candidates & -candidates).bit_length() - 1
            candidates &= candidates - 1
            av = rows[jdx]
            # off b's support, a >= -tol already holds by the masks
            if not all(av.get(v, 0) >= t for v, t in low.items()):
                continue
            if jdx < idx:
                break
            if high is None:
                high = {v: c + tol for v, c in bv.items()} if shifted else bv
            if any(av.get(v, 0) > t for v, t in high.items()) or any(
                c > tol for v, c in av.items() if v not in bv
            ):
                break
        else:
            out.append(b)
    return out


def fm_eliminate(
    poly: Polyhedron,
    var: str,
    *,
    assume_nonneg: bool = True,
    tol=1e-9,
) -> Polyhedron:
    """Project out one variable: combine every lower bound on it with every
    upper bound, keep everything that never mentioned it, and drop the
    redundant rows of the result.

    With assume_nonneg the variable's implicit zero lower bound joins the
    combination step, so explicit -x <= 0 rows are never required.
    """
    keep, lowers, uppers = [], [], []
    for ineq in poly.inequalities:
        a = ineq.coeff(var)
        if _iszero(a, tol):
            keep.append(ineq)
        elif a > 0:
            uppers.append(ineq)
        else:
            lowers.append(ineq)
    if assume_nonneg:
        lowers.append(LinearIneq.of({var: -1}, 0))
    combos = []
    for lo in lowers:
        al = -lo.coeff(var)
        for up in uppers:
            au = up.coeff(var)
            names = set(lo.variables) | set(up.variables)
            names.discard(var)
            coeffs = {
                v: _div(lo.coeff(v), al) + _div(up.coeff(v), au) for v in names
            }
            combos.append(
                LinearIneq.of(coeffs, _div(lo.rhs, al) + _div(up.rhs, au), tol=tol)
            )
    return Polyhedron.of(
        simplify_inequalities(keep + combos, assume_nonneg=assume_nonneg, tol=tol)
    )


def build_flow_polyhedron(model: ErasureModel, catalog: ControlCatalog):
    """Symbolic flow-balance system over per-control time shares and rates,
    from the rows feasibility_check reads, each coefficient Fraction(c, M).

    Variables: one share per catalog control (returned mapping), one rate
    per user named lam<i>.  Suitable for projection onto the rates.
    """
    var_of = {spec: f"phi{idx}" for idx, spec in enumerate(catalog)}
    ineqs = []
    edges_of = {spec: derive_transitions(spec, model) for spec in catalog}
    scale, specs, rows = _flow_balance(edges_of, model.n_users)
    names = [var_of[spec] for spec in specs]
    for _, root, row in rows:
        coeffs = {names[k]: Fraction(c, scale) for k, c in row}
        if root is not None:
            coeffs[f"lam{root}"] = 1
        ineqs.append(LinearIneq.of(coeffs, 0))
    ineqs.append(LinearIneq.of({v: 1 for v in var_of.values()}, 1))
    for v in var_of.values():
        ineqs.append(LinearIneq.of({v: -1}, 0))
    return Polyhedron.of(ineqs), var_of
