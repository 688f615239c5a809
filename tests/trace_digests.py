"""Same-seed trace digests of a fixed list of simulator configurations.

Each configuration is run once and hashed: sha256 over its trace rows,
its summary and its window means (or, for the probe, its reports).
``tests/test_trace_digests.py`` compares the digests with
``tests/golden/trace_digests.json``; a change that alters traces on purpose
rewrites that file with

    PYTHONPATH=src python tests/trace_digests.py

and lists the configurations whose digests changed.
"""

import hashlib
import json
import pathlib
import sys
from fractions import Fraction as F

from becsim.channel import ArrivalModel, ErasureModel
from becsim.sim import SimConfig, run, stability_probe, summarize

GOLDEN = pathlib.Path(__file__).parent / "golden" / "trace_digests.json"


def _systems():
    """(name, n_users, restriction, erasure, arrivals, horizon) per system:
    N=1..4, `full` and `table8`, iid ε as Fraction and as float, per-user
    ε, joint pmfs with zero-mass sets, Bernoulli and joint arrivals with
    Fraction and float rates."""
    iid, joint = ErasureModel.iid, ErasureModel.joint
    bern = ArrivalModel.bernoulli
    return [
        ("n1-iid-frac", 1, "full", iid(1, F(1, 3)), bern([F(2, 5)]), 1000),
        ("n1-iid-float", 1, "full", iid(1, 0.3), bern([0.45]), 1000),
        (
            "n2-iid-frac", 2, "full", iid(2, F(1, 2)),
            bern([F(1, 5), F(1, 5)]), 1000,
        ),
        ("n2-iid-float", 2, "full", iid(2, 0.25), bern([0.3, 0.2]), 1000),
        (
            "n2-joint-zero", 2, "full",
            joint(2, {(): F(1, 10), (0,): 0, (1,): F(1, 2), (0, 1): F(2, 5)}),
            bern([F(1, 4), 0.15]), 1000,
        ),
        (
            "n2-joint-arrivals", 2, "full", iid(2, F(2, 5)),
            ArrivalModel.joint(
                2, {(0, 0): F(1, 2), (1, 0): F(1, 4), (0, 2): F(1, 8), (1, 1): F(1, 8)}
            ),
            1000,
        ),
        (
            "n3-iid-frac", 3, "full", iid(3, F(2, 5)),
            bern([F(3, 20), F(1, 8), F(1, 10)]), 1000,
        ),
        ("n3-iid-float", 3, "full", iid(3, 0.3), bern([0.20, 0.17, 0.14]), 1000),
        (
            "n3-per-user", 3, "full", iid(3, [0.1, F(3, 10), 0.6]),
            bern([0.2, 0.15, 0.1]), 1000,
        ),
        (
            "n3-joint-zero", 3, "full",
            joint(
                3,
                {
                    (): F(1, 8), (0,): F(1, 8), (1,): 0, (2,): F(1, 4),
                    (0, 1): F(1, 8), (0, 2): 0, (1, 2): F(1, 8), (0, 1, 2): F(1, 4),
                },
            ),
            ArrivalModel.joint(
                3, {(0, 0, 0): 0.55, (1, 0, 0): 0.2, (0, 1, 1): 0.15, (1, 1, 0): 0.1}
            ),
            1000,
        ),
        (
            "n4-table8-iid-frac", 4, "table8", iid(4, F(1, 4)),
            bern([F(1, 5), F(3, 20), F(3, 25), F(1, 10)]), 800,
        ),
        (
            "n4-table8-iid-float", 4, "table8", iid(4, 0.35),
            bern([0.12, 0.12, 0.1, 0.1]), 800,
        ),
        (
            "n4-full-iid-frac", 4, "full", iid(4, F(1, 3)),
            bern([0.22, 0.2, 0.18, 0.16]), 800,
        ),
        (
            "n4-table8-joint-zero", 4, "table8",
            joint(
                4,
                {
                    (): F(1, 10), (0, 1): F(1, 5), (2,): 0, (0, 2, 3): F(3, 10),
                    (1, 3): 0, (0, 1, 2, 3): F(2, 5),
                },
            ),
            bern([F(1, 10), F(1, 10), F(1, 12), F(1, 12)]), 800,
        ),
    ]


# engine, policy, retransmit mode, flush on empty: each system runs all four
VARIANTS = [
    ("object", "maxweight", "sticky", True),
    ("counts", "maxweight", "reselect", False),
    ("counts", "random", "sticky", True),
    ("object", "random", "reselect", False),
]


def configurations():
    """(name, thunk) per configuration, in file order; each thunk returns
    the object its digest is taken over."""
    out = []
    for name, n, restriction, erasure, arrivals, horizon in _systems():
        for engine, policy, mode, flush in VARIANTS:
            cfg = SimConfig(
                n_users=n,
                horizon=horizon,
                erasure=erasure,
                arrivals=arrivals,
                restriction=restriction,
                seed=f"digest/{name}",
                engine=engine,
                policy=policy,
                retransmit_mode=mode,
                flush_on_empty=flush,
                deep_audit_every=97 if engine == "object" else 0,
            )
            windows = ((0, horizon // 2), (horizon // 2, horizon))

            def thunk(cfg=cfg, windows=windows):
                res = run(cfg, windows=windows)
                return (
                    [repr(row) for row in res.trace],
                    summarize(res),
                    [repr(m) for m in res.window_means],
                )

            tag = f"{engine}-{policy}-{mode}-{'flush' if flush else 'noflush'}"
            out.append((f"{name}/{tag}", thunk))

    probe_cfg = SimConfig(
        n_users=2,
        horizon=1,
        erasure=ErasureModel.iid(2, F(1, 2)),
        arrivals=ArrivalModel.bernoulli([0, 0]),
        seed="digest/probe",
    )

    def probe():
        reports = stability_probe(
            probe_cfg, (1, 1), (0.9, 1.1), seeds=2, window=300, workers=1
        )
        return [repr(r) for r in reports]

    out.append(("probe/n2-iid-half", probe))
    return out


def digest(thunk) -> str:
    blob = json.dumps(thunk(), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def compute() -> dict:
    return {name: digest(thunk) for name, thunk in configurations()}


def main() -> int:
    digests = compute()
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {GOLDEN}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
