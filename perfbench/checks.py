"""Checks computed apart from becsim.

Nothing here imports the program.  Each check takes the program's outputs
as plain values (or objects read through their public attributes) and
returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from math import factorial, sqrt


def outer_bound(rates, eps) -> Fraction:
    """Max over service orders of sum_k rate_(k) / (1 - eps^k), for iid
    erasure probability eps; exact for rational or float inputs."""
    eps = Fraction(eps)
    rates = [Fraction(r) for r in rates]
    return max(
        sum(rates[u] / (1 - eps ** (k + 1)) for k, u in enumerate(order))
        for order in permutations(range(len(rates)))
    )


def permutation_bound_rows(n_users, eps) -> set:
    """The rows sum_k lam_(k) / (1 - eps^k) <= 1, one per service order, as
    frozensets of (variable, coefficient) with the right-hand side at 1."""
    eps = Fraction(eps)
    return {
        frozenset(
            (f"lam{u}", 1 / (1 - eps ** (k + 1))) for k, u in enumerate(order)
        )
        for order in permutations(range(n_users))
    }


def _unit_rhs(row):
    if not row.rhs > 0:
        return None
    return frozenset((v, Fraction(c) / Fraction(row.rhs)) for v, c in row.coeffs)


# --- probe -------------------------------------------------------------------


def check_probe(reports, eps, expected, tol=1e-9) -> list:
    """expected maps each scale to its verdict.  Every report's rates must
    sit at exactly that scale of the outer bound, and its verdict must match."""
    problems = []
    seen = [rep["scale"] for rep in reports]
    if sorted(seen) != sorted(expected):
        problems.append(f"probe reported scales {seen}, expected {sorted(expected)}")
    for rep in reports:
        scale = rep["scale"]
        if scale not in expected:
            continue
        margin = outer_bound(rep["rates"], eps)
        if abs(float(margin) - scale) > tol:
            problems.append(f"scale {scale}: rates sit at margin {float(margin)}")
        if rep["verdict"] != expected[scale]:
            problems.append(
                f"scale {scale}: verdict {rep['verdict']!r}, expected "
                f"{expected[scale]!r} (slopes {rep['slopes']})"
            )
    return problems


# --- audited simulation ---------------------------------------------------------


def check_audited(
    result, *, n_users, rates, eps, backlog, replay_trace, k_sigma=6
) -> list:
    """result is a becsim RunResult; backlog maps user -> final pending
    natives; replay_trace is the counts engine's trace for the same config."""
    problems = []
    if outer_bound(rates, eps) >= 1:
        problems.append(f"load {float(outer_bound(rates, eps))} is not inside the bound")
    arrived = sum(result.arrivals_total)
    if sum(result.delivered_total) + result.final_v_hat != arrived:
        problems.append("delivered + final backlog differs from arrivals")
    horizon = result.config.horizon
    if len(result.trace) != horizon:
        problems.append(f"{len(result.trace)} trace rows for {horizon} slots")
    for row in result.trace:
        if not row.q_hat <= row.v_hat <= n_users * row.q_hat:
            problems.append(f"slot {row.t}: q_hat {row.q_hat}, v_hat {row.v_hat}")
            break
    for level, size in result.max_stored_by_level.items():
        cap = factorial(level - 1) if level > 1 else 1
        if size > cap:
            problems.append(f"stored composite of {size} at level {level}")
    for level, size in result.max_exit_by_level.items():
        if size > factorial(level):
            problems.append(f"exit composite of {size} at level {level}")
    if not result.overhead_hist or max(result.overhead_hist) < 2:
        problems.append("no coded transmission occurred")
    for user, lam in enumerate(rates):
        lam = float(lam)
        served = result.delivered_total[user] + backlog.get(user, 0)
        sigma = sqrt(horizon * lam * (1 - lam))
        if abs(served - lam * horizon) > k_sigma * sigma:
            problems.append(
                f"user {user}: {served} delivered+pending, expected "
                f"{lam * horizon:.0f} +- {k_sigma} sigma ({sigma:.1f})"
            )
    if replay_trace != result.trace:
        first = next(
            (
                a.t
                for a, b in zip(result.trace, replay_trace)
                if a != b
            ),
            min(len(result.trace), len(replay_trace)),
        )
        problems.append(f"counts-engine replay differs from row {first}")
    return problems


# --- certificates and Fourier-Motzkin -----------------------------------------


def check_certificate(rates, eps, shares, *, methods_agree, feasible) -> list:
    problems = []
    negative = [s for s in shares if s < 0]
    if negative:
        problems.append(f"{len(negative)} negative shares, e.g. {negative[0]}")
    lam = sorted(rates, reverse=True)
    budget = sum(r / (1 - eps ** (i + 1)) for i, r in enumerate(lam))
    total = sum(shares)
    if total != budget:
        problems.append(f"share total {total} != weighted load {budget}")
    if not methods_agree:
        problems.append("recursive and closed forms differ")
    if not feasible:
        problems.append("feasibility_check rejects the certificate at tol=0")
    return problems


def check_two_user_projection(rows, eps) -> list:
    """The full N=2 projection must be exactly the two permutation bounds."""
    got = {_unit_rhs(row) for row in rows}
    want = permutation_bound_rows(2, eps)
    if None in got or got != want or len(rows) != len(want):
        return [f"N=2 projection {sorted(map(sorted, filter(None, got)))} != bounds"]
    return []


def _value(row, point):
    return sum(c * point.get(v, 0) for v, c in row.coeffs)


def in_projection(prev_rows, var, point) -> bool:
    """Is there z >= 0 putting point + {var: z} in the previous polyhedron?"""
    lo, hi = Fraction(0), None
    for row in prev_rows:
        a = dict(row.coeffs).get(var, 0)
        rest = sum(c * point.get(v, 0) for v, c in row.coeffs if v != var)
        if a == 0:
            if rest > row.rhs:
                return False
            continue
        bound = Fraction(row.rhs - rest) / a
        if a > 0:
            hi = bound if hi is None else min(hi, bound)
        else:
            lo = max(lo, bound)
    return hi is None or lo <= hi


def check_fm_step(prev_rows, rows, var, points) -> list:
    """Each nonnegative point (without var) must lie in the projection
    exactly when in_projection says so."""
    problems = []
    if any(var in dict(row.coeffs) for row in rows):
        problems.append(f"projection still mentions {var}")
    for point in points:
        claimed = all(_value(row, point) <= row.rhs for row in rows)
        if claimed != in_projection(prev_rows, var, point):
            side = "inside" if claimed else "outside"
            shown = {v: str(x) for v, x in point.items() if x}
            problems.append(f"eliminating {var}: {shown} placed {side}")
    return problems
