"""Digests of the analysis outputs: certificates, verdicts, transition
tables, outer-bound and capacity-gap argmaxes, flow polyhedra and their
Fourier-Motzkin projections, and the ``regions`` command's files.

Each output is computed once and hashed: sha256 over a JSON form in which
every number is its exact string.  ``tests/test_analysis_digests.py``
compares the digests with ``tests/golden/analysis_digests.json``; a change
that alters an analysis output on purpose rewrites that file with

    PYTHONPATH=src python tests/analysis_digests.py

and lists the outputs whose digests changed.
"""

import hashlib
import json
import pathlib
import sys
import tempfile
from fractions import Fraction as F

from becsim import cli
from becsim.channel import ErasureModel, make_rng
from becsim.coding import FULL, TABLE8, enumerate_controls
from becsim.regions import (
    build_flow_polyhedron,
    build_phi_4user,
    capacity_gap,
    feasibility_check,
    fm_eliminate,
    outer_bound_argmax,
)
from becsim.scheduler import TransitionTable, derive_transitions

GOLDEN = pathlib.Path(__file__).parent / "golden" / "analysis_digests.json"


def _ray(rng, eps, fill):
    """test_06's ray: sorted random weights scaled to fill of the bound."""
    weights = sorted((F(rng.randrange(1, 1000), 1000) for _ in range(4)), reverse=True)
    denom = sum(w / (1 - eps ** (k + 1)) for k, w in enumerate(weights))
    return tuple(fill * w / denom for w in weights)


def _verdict(v) -> dict:
    return {
        "feasible": v["feasible"],
        "worst_node": repr(v["worst_node"]),
        "worst_slack": str(v["worst_slack"]),
        "violations": [[repr(node), str(slack)] for node, slack in v["violations"]],
        "negative_phi": [repr(s) for s in v["negative_phi"]],
        "unknown_controls": [repr(s) for s in v["unknown_controls"]],
        "phi_total": str(v["phi_total"]),
    }


def _shares(cert) -> list:
    return [[repr(spec), str(v)] for spec, v in cert.phi.items()]


def _certificates():
    """Per ε of test_06: both certificates and the tol=0 verdict of its 180
    rays (same stream, same order).  Then 20 rays at ε = 0..9/10 whose
    certificate, built at fill 99/100, is checked against the same ray at
    fill 101/100, at tol 0 and at the default tol, so violations show."""
    catalog = enumerate_controls(4, TABLE8)
    rng = make_rng("acceptance-6", "rays")
    for tenth in range(1, 10):
        eps = F(tenth, 10)
        model = ErasureModel.iid(4, eps)
        rec, clo, verdicts = [], [], []
        transitions = None
        for _ in range(20):
            rates = _ray(rng, eps, F(99, 100))
            cert = build_phi_4user(rates, eps, method="recursive")
            rec.append(_shares(cert))
            clo.append(_shares(build_phi_4user(rates, eps, method="closed")))
            if transitions is None:
                transitions = {s: derive_transitions(s, model) for s in cert.phi}
            verdict = feasibility_check(
                rates, cert, model, catalog, tol=0, transitions=transitions
            )
            verdicts.append(_verdict(verdict))
        yield f"certificate-recursive/eps={eps}", rec
        yield f"certificate-closed/eps={eps}", clo
        yield f"verdicts/eps={eps}", verdicts

    rng = make_rng("analysis-digests", "violations")
    verdicts = []
    for k in range(20):
        eps = F(k % 10, 10)
        model = ErasureModel.iid(4, eps)
        rates = _ray(rng, eps, F(99, 100))
        cert = build_phi_4user(rates, eps)
        over = tuple(r * F(101, 99) for r in rates)
        for tol in (0, 1e-9):
            verdict = feasibility_check(over, cert, model, catalog, tol=tol)
            verdicts.append(_verdict(verdict))
    yield "verdicts/fill=101/100", verdicts


def _models(n):
    """iid 1/4, per-user ε, and a joint pmf with zero-mass sets."""
    per_user = [F(1, 10), F(1, 4), F(1, 2), F(3, 4), F(9, 10)][:n]
    weights = {
        tuple(u for u in range(n) if mask >> u & 1): 0 if mask % 3 == 2 else mask + 1
        for mask in range(1 << n)
    }
    total = sum(weights.values())
    joint = {users: F(w, total) for users, w in weights.items()}
    return [
        ("iid=1/4", ErasureModel.iid(n, F(1, 4))),
        ("per-user", ErasureModel.iid(n, per_user)),
        ("joint-zero", ErasureModel.joint(n, joint)),
    ]


def _tables():
    for n, restriction in [(1, FULL), (2, FULL), (3, FULL), (4, FULL), (4, TABLE8)]:
        catalog = enumerate_controls(n, restriction)
        for label, model in _models(n):
            table = TransitionTable.for_catalog(catalog, model)
            yield f"transitions/n{n}-{restriction}/{label}", table.to_json()


def _argmaxes():
    """outer_bound_argmax and capacity_gap on seeded rational rays, N=1..5
    under each model, every value as its exact string."""
    rng = make_rng("analysis-digests", "argmax")
    for n in range(1, 6):
        for label, model in _models(n):
            outer, gaps = [], []
            for _ in range(4):
                rates = [F(rng.randrange(0, 1000), 4000) for _ in range(n)]
                margin, perm = outer_bound_argmax(rates, model)
                outer.append([str(margin), list(perm)])
                for bits in (8, 64):
                    gap = capacity_gap(rates, model, bits)
                    gaps.append({k: str(v) for k, v in gap.items()})
            yield f"argmax/n{n}/{label}", {"outer": outer, "capacity_gap": gaps}


def _rows(poly) -> list:
    return [[[[v, str(c)] for v, c in i.coeffs], str(i.rhs)] for i in poly.inequalities]


def _highest_first(var_of) -> list:
    """perfbench's elimination order: the highest catalog index first."""
    return sorted(var_of.values(), key=lambda v: -int(v[3:]))


def _projections():
    """build_flow_polyhedron for N=2 and N=3 / full under each model; the
    whole N=2 projection per model and the first 23 N=3 eliminations at
    iid 1/2, each step's rows at tol=0, with the N=3 peak row count.  The
    same 23 eliminations at the float tol=0.05, where the dominance pass's
    earlier-row-wins tie decides which of two near-equal rows survives."""
    for n in (2, 3):
        catalog = enumerate_controls(n, FULL)
        for label, model in _models(n):
            poly, var_of = build_flow_polyhedron(model, catalog)
            shares = [[repr(spec), var] for spec, var in var_of.items()]
            yield f"polyhedron/n{n}-full/{label}", [shares, _rows(poly)]
            if n == 2:
                steps = [_rows(poly)]
                for var in _highest_first(var_of):
                    poly = fm_eliminate(poly, var, tol=0)
                    steps.append(_rows(poly))
                yield f"fm/n2-full/{label}", steps
    catalog = enumerate_controls(3, FULL)
    start, var_of = build_flow_polyhedron(ErasureModel.iid(3, F(1, 2)), catalog)
    poly = start
    steps = []
    for var in _highest_first(var_of)[:23]:
        poly = fm_eliminate(poly, var, tol=0)
        steps.append(_rows(poly))
    yield "fm/n3-full/iid=1/2/23-steps", {
        "steps": steps,
        "peak_rows": max(len(rows) for rows in steps),
    }
    poly = start
    steps = []
    for var in _highest_first(var_of)[:23]:
        poly = fm_eliminate(poly, var, tol=0.05)
        steps.append(_rows(poly))
    yield "fm/n3-full/iid=1/2/23-steps/tol=0.05", steps


def _cli_file(name, argv):
    with tempfile.TemporaryDirectory() as tmp:
        if cli.main([*argv, "--format", "csv", "--out", tmp]) != 0:
            raise RuntimeError(f"becsim {' '.join(argv)} failed")
        return pathlib.Path(tmp, name).read_text()


def outputs():
    """(name, object its digest is taken over) per output, in file order."""
    yield from _certificates()
    yield from _tables()
    yield from _argmaxes()
    yield from _projections()
    for name, argv in [
        ("regions-n4-check-cert.csv", ["regions", "--n", "4", "--check-cert"]),
        ("regions-n3.csv", ["regions", "--n", "3"]),
    ]:
        yield f"cli/{name}", _cli_file("regions.csv", argv)


def digest(obj) -> str:
    blob = json.dumps(obj, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def compute() -> dict:
    return {name: digest(obj) for name, obj in outputs()}


def main() -> int:
    digests = compute()
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {GOLDEN}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
