"""Each independent check passes a correct input and rejects a wrong one.

    python3 -m pytest perfbench -q
"""

from collections import namedtuple
from fractions import Fraction as F

import checks

Row = namedtuple("Row", "coeffs rhs")


def two_user_rows(eps):
    a, b = 1 / (1 - eps), 1 / (1 - eps**2)
    return [Row((("lam0", a), ("lam1", b)), F(1)), Row((("lam0", b), ("lam1", a)), F(1))]


def test_outer_bound_takes_the_worst_service_order():
    # eps = 1/2: weights 2, 4/3, 8/7 by position; largest rate goes first
    assert checks.outer_bound((F(1, 10), F(3, 10), F(2, 10)), F(1, 2)) == (
        F(3, 10) * 2 + F(2, 10) * F(4, 3) + F(1, 10) * F(8, 7)
    )


def test_perturbed_outer_bound_inequality_is_rejected():
    eps = F(1, 2)
    rows = two_user_rows(eps)
    assert checks.check_two_user_projection(rows, eps) == []
    # scaling a row by a positive factor is the same inequality
    assert checks.check_two_user_projection(
        [Row(tuple((v, 3 * c) for v, c in rows[0].coeffs), F(3)), rows[1]], eps
    ) == []
    bent = Row((("lam0", F(2)), ("lam1", F(4, 3) + F(1, 1000))), F(1))
    assert checks.check_two_user_projection([bent, rows[1]], eps)
    assert checks.check_two_user_projection(rows[:1], eps)


def probe_reports(verdict_low, verdict_high):
    eps = F(1, 4)
    unit = 1 / float(checks.outer_bound((1, 1, 1, 1), eps))
    return [
        {"scale": 0.9, "rates": [0.9 * unit] * 4, "slopes": [0.0], "verdict": verdict_low},
        {"scale": 1.1, "rates": [1.1 * unit] * 4, "slopes": [0.2], "verdict": verdict_high},
    ]


EXPECTED = {0.9: "bounded", 1.1: "growing"}


def test_swapped_probe_verdicts_are_rejected():
    assert checks.check_probe(probe_reports("bounded", "growing"), F(1, 4), EXPECTED) == []
    assert len(checks.check_probe(probe_reports("growing", "bounded"), F(1, 4), EXPECTED)) == 2


def test_probe_rates_off_the_scaled_bound_are_rejected():
    reports = probe_reports("bounded", "growing")
    reports[0]["rates"] = [r * 1.01 for r in reports[0]["rates"]]
    assert checks.check_probe(reports, F(1, 4), EXPECTED)


def test_negative_certificate_share_is_rejected():
    rates, eps = (F(3, 20), F(1, 10), F(1, 20), F(1, 40)), F(1, 2)
    budget = sum(r / (1 - eps ** (i + 1)) for i, r in enumerate(rates))
    shares = [budget / 4] * 4
    ok = dict(methods_agree=True, feasible=True)
    assert checks.check_certificate(rates, eps, shares, **ok) == []
    # same total, one share pushed below zero
    bad = [shares[0] + F(1, 100), shares[1] - F(1, 100) - budget / 4, shares[2], shares[3] + budget / 4]
    assert sum(bad) == budget
    assert checks.check_certificate(rates, eps, bad, **ok)
    assert checks.check_certificate(rates, eps, shares, methods_agree=False, feasible=True)
    assert checks.check_certificate(rates, eps, shares[:3], **ok)


def test_point_on_the_wrong_side_of_a_projection_is_rejected():
    # x + z <= 1 and y - z <= 0 with z >= 0: eliminating z leaves x + y <= 1
    prev = [Row((("x", F(1)), ("z", F(1))), F(1)), Row((("y", F(1)), ("z", F(-1))), F(0))]
    right = [Row((("x", F(1)), ("y", F(1))), F(1))]
    loose = [Row((("x", F(1)), ("y", F(1))), F(2))]
    points = [{}, {"x": F(1, 2), "y": F(1, 2)}, {"x": F(1, 2), "y": F(3, 4)}]
    assert checks.check_fm_step(prev, right, "z", points) == []
    problems = checks.check_fm_step(prev, loose, "z", points)
    assert len(problems) == 1 and "placed inside" in problems[0]
    assert checks.check_fm_step(prev, prev, "z", points)  # z not eliminated
