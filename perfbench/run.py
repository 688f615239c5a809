"""becsim benchmark: one workload per run, JSON result on the last line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see README.md beside this file):

* ``probe-n4-table8``: the README's N=4 ``becsim probe`` through
  ``becsim.cli.main``, with a shorter window and three seeds per scale.
* ``audited-n4-table8``: one fully audited object-engine ``sim.run`` per
  round at N=4 / table8, replayed through the counts engine as a check.
* ``analysis-cert-fm``: the 4-user certificate sweep and exact
  Fourier-Motzkin projection, no simulation.

A run sets up several times (reporting the median), then repeats whole
rounds while the run still ends within ``--seconds``.  Every round is
checked against computations in ``checks.py`` (later analysis rounds
against the first round's checked outputs).  With ``--trace 1`` the
set-up runs once and round 0 runs once more at the end with the
per-layer spans of ``tracing.py`` installed.

becsim is imported from ``src/`` of the checkout that holds this file; the
run fails (exit 1, no result line) when it is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import importlib
import io
import json
import os
import random
import resource
import statistics
import sys
import tempfile
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

import checks  # noqa: E402  (run.py's directory is on sys.path)
import tracing  # noqa: E402

MODULES = ("core", "channel", "coding", "movement", "scheduler", "regions", "sim", "cli")

SETUP_TRIALS = 11
PROBE_WORKERS = 2


def load_becsim() -> SimpleNamespace:
    """Import becsim afresh from this checkout, as a new process would."""
    for name in [n for n in sys.modules if n == "becsim" or n.startswith("becsim.")]:
        del sys.modules[name]
    package = importlib.import_module("becsim")
    if Path(package.__file__).resolve().parent != (SRC / "becsim").resolve():
        raise ImportError(f"becsim imported from {package.__file__}, not {SRC}")
    return SimpleNamespace(
        **{name: importlib.import_module(f"becsim.{name}") for name in MODULES}
    )


@dataclasses.dataclass
class Round:
    seconds: float  # the timed part
    attempted: int
    failed: int
    rate: float  # the workload's operations per second (ops_per_s)
    problems: list


# --- probe-n4-table8 -----------------------------------------------------------


class Probe:
    """`becsim probe --n 4 --restriction table8 --iid-eps 0.25 --lambda
    1,1,1,1 --scales 0.9,1.1`, window 1000, 3 seeds per scale.

    The slope threshold is raised with the shorter window so that it still
    separates the two scales: at window 1000, 30 bounded tasks had slopes
    from -0.010 to 0.019 (sd 0.007) and 30 growing tasks 0.066 to 0.24
    (mean 0.143, sd 0.034)."""

    EPS = Fraction(1, 4)
    SCALES = {0.9: "bounded", 1.1: "growing"}
    WINDOW = 1000
    SEEDS = 3
    THRESHOLD = "0.04"
    OPS = SEEDS * len(SCALES)  # probe tasks per round
    fresh_import = True  # each round is a new CLI invocation: cold compile caches

    def setup(self, bec, seed, scratch):
        config = scratch / "probe-config.json"
        config.write_text(json.dumps({"slope_threshold": self.THRESHOLD}))
        argv = [
            "probe", "--n", "4", "--restriction", "table8", "--iid-eps", "0.25",
            "--lambda", "1,1,1,1", "--scales", ",".join(map(str, self.SCALES)),
            "--window", str(self.WINDOW), "--seeds", str(self.SEEDS),
            "--config", str(config),
        ]
        return SimpleNamespace(argv=argv, seed=seed, scratch=scratch)

    def round(self, bec, inputs, index, tracer):
        tasks = self.OPS
        with tempfile.TemporaryDirectory(dir=inputs.scratch) as out:
            argv = inputs.argv + ["--seed", f"bench{inputs.seed}-r{index}", "--out", out]
            with contextlib.redirect_stdout(io.StringIO()):
                t0 = perf_counter()
                code = bec.cli.main(argv)
                seconds = perf_counter() - t0
            if code != 0:
                return Round(seconds, tasks, tasks, 0.0, [f"becsim probe exit code {code}"])
            reports = json.loads((Path(out) / "probe.json").read_text())
        problems = checks.check_probe(reports, self.EPS, self.SCALES)
        slots = tasks * 2 * self.WINDOW
        return Round(seconds, tasks, tasks if problems else 0, slots / seconds, problems)


# --- audited-n4-table8 ---------------------------------------------------------


class Audited:
    """Object engine, N=4 / table8, max-weight, float eps 0.5, rates
    (0.16, 0.14, 0.12, 0.10), audited as the acceptance fixture is."""

    EPS = 0.5
    RATES = (0.16, 0.14, 0.12, 0.10)
    HORIZON = 10_000
    OPS = HORIZON  # slots per round
    fresh_import = False

    def setup(self, bec, seed, scratch):
        config = bec.sim.SimConfig(
            n_users=4,
            horizon=self.HORIZON,
            erasure=bec.channel.ErasureModel.iid(4, self.EPS),
            arrivals=bec.channel.ArrivalModel.bernoulli(self.RATES),
            restriction=bec.coding.TABLE8,
            seed=None,
            engine="object",
            policy="maxweight",
            audit_every=1,
            deep_audit_every=1000,
            decode_monitor=True,
            overhead_monitor=True,
            decimate=1,
        )
        bec.sim.compile_catalog(config)  # warm the per-process compile cache
        return SimpleNamespace(config=config, seed=seed)

    def round(self, bec, inputs, index, tracer):
        config = dataclasses.replace(inputs.config, seed=f"bench{inputs.seed}-r{index}")
        try:
            t0 = perf_counter()
            result = bec.sim.run(config)
            seconds = perf_counter() - t0
        except bec.core.MonitorViolation as err:
            return Round(0.0, self.HORIZON, self.HORIZON, 0.0, [f"monitor violation: {err}"])
        with tracer.paused() if tracer else contextlib.nullcontext():
            replay = bec.sim.run(dataclasses.replace(config, engine="counts"))
        backlog: dict = {}
        for (_queue, user), count in result.state.counters.items():
            backlog[user] = backlog.get(user, 0) + count
        problems = checks.check_audited(
            result,
            n_users=4,
            rates=self.RATES,
            eps=self.EPS,
            backlog=backlog,
            replay_trace=replay.trace,
        )
        failed = self.HORIZON if problems else 0
        return Round(seconds, self.HORIZON, failed, self.HORIZON / seconds, problems)


# --- analysis-cert-fm ----------------------------------------------------------


class Analysis:
    """4-user certificate sweep (eps 1/10..9/10, 8 seeded rays each, both
    construction methods, feasibility at tol=0), the full FM projection at
    N=2 / full (eps from the seed) and the first 23 FM eliminations at
    N=3 / full, eps 1/2, so the FM work is the same for every seed.

    Controls are eliminated from the highest catalog index down: the rows
    then peak at 274 after 23 steps, the last taking under a second.  In
    the tests' order (descending by name) the sixth step already reaches
    887 rows and takes 8 s, which would leave three rounds in a run.

    Every round of a run computes the same outputs from the same inputs.
    The first round's outputs get every check; a later round whose outputs
    equal them passes on that equality, and any other gets every check
    too.  The sampled FM checks cost about as much as the round itself, so
    this doubles the rounds a run times."""

    RAYS = 8
    N3_STEPS = 23
    POINTS = 40
    OPS = 9 * RAYS + 5 + N3_STEPS  # certificates and FM steps per round
    fresh_import = False

    def __init__(self):
        self.checked = None  # outputs of a round that passed every check

    def setup(self, bec, seed, scratch):
        rng = random.Random(f"perfbench/{seed}/analysis")
        model_of = bec.channel.ErasureModel.iid
        sweep = []
        for tenth in range(1, 10):
            eps = Fraction(tenth, 10)
            rays = []
            for _ in range(self.RAYS):
                weights = sorted(
                    (Fraction(rng.randrange(1, 1000), 1000) for _ in range(4)),
                    reverse=True,
                )
                denom = sum(w / (1 - eps ** (k + 1)) for k, w in enumerate(weights))
                rays.append(tuple(Fraction(99, 100) * w / denom for w in weights))
            sweep.append((eps, model_of(4, eps), rays))
        catalog4 = bec.coding.enumerate_controls(4, bec.coding.TABLE8)
        eps2 = Fraction(rng.randrange(1, 10), 10)
        projections = []
        for n, eps, steps in ((2, eps2, None), (3, Fraction(1, 2), self.N3_STEPS)):
            catalog = bec.coding.enumerate_controls(n, bec.coding.FULL)
            poly, var_of = bec.regions.build_flow_polyhedron(model_of(n, eps), catalog)
            order = sorted(var_of.values(), key=lambda v: -int(v[3:]))[:steps]
            projections.append((n, eps, poly, order))
        return SimpleNamespace(
            sweep=sweep, catalog4=catalog4, projections=projections,
            points_seed=f"perfbench/{seed}/points",
        )

    def round(self, bec, inputs, index, tracer):
        regions = bec.regions
        t0 = perf_counter()
        certs = []
        for eps, model, rays in inputs.sweep:
            transitions = None
            for rates in rays:
                rec = regions.build_phi_4user(rates, eps, method="recursive")
                clo = regions.build_phi_4user(rates, eps, method="closed")
                if transitions is None:
                    transitions = {
                        spec: bec.scheduler.derive_transitions(spec, model)
                        for spec in rec.phi
                    }
                verdict = regions.feasibility_check(
                    rates, rec, model, inputs.catalog4, tol=0, transitions=transitions
                )
                certs.append((rates, eps, rec, clo, verdict["feasible"]))
        t1 = perf_counter()
        chains = []
        for n, eps, poly, order in inputs.projections:
            chain = [poly]
            for var in order:
                chain.append(regions.fm_eliminate(chain[-1], var, tol=0))
            chains.append(chain)
        t2 = perf_counter()
        ops = len(certs) + sum(len(order) for *_, order in inputs.projections)
        outputs = (
            [(rec.phi, clo.phi, feasible) for _, _, rec, clo, feasible in certs],
            chains,
        )
        if outputs == self.checked:
            return Round(t2 - t0, ops, 0, len(certs) / (t1 - t0), [])

        problems = []
        failed = 0
        for rates, eps, rec, clo, feasible in certs:
            found = checks.check_certificate(
                rates, eps, list(rec.phi.values()),
                methods_agree=rec.phi == clo.phi, feasible=feasible,
            )
            failed += bool(found)
            problems += found
        (_, eps2, _, order2), (_, _, _, order3) = inputs.projections
        found = checks.check_two_user_projection(chains[0][-1].inequalities, eps2)
        failed += len(order2) if found else 0
        problems += found
        rng = random.Random(f"{inputs.points_seed}/{index}")
        for step, var in enumerate(order3):
            prev, proj = chains[1][step], chains[1][step + 1]
            names = [v for v in prev.variables() if v != var]
            points = fm_points(prev.inequalities, var, names, rng, self.POINTS)
            found = checks.check_fm_step(prev.inequalities, proj.inequalities, var, points)
            failed += bool(found)
            problems += found
        if not problems:
            self.checked = outputs
        return Round(t2 - t0, ops, failed, len(certs) / (t1 - t0), problems)


def fm_points(prev_rows, var, names, rng, count, pairs=6, depth=10) -> list:
    """Nonnegative rational points over names for checking one elimination.

    The origin (inside every projection of the flow system), one unit rate
    (outside) and sparse random points with one to three nonzero
    coordinates.  Then, on segments from an inside to an outside point, the
    pair of points 2^-depth apart on either side of the true boundary that
    bisection with checks.in_projection finds."""
    rates = [v for v in names if v.startswith("lam")]
    points = [{}, {rates[0]: Fraction(1)}]
    while len(points) < count:
        chosen = rng.sample(names, k=min(len(names), rng.randint(1, 3)))
        points.append({v: Fraction(rng.randrange(1, 41), 40) for v in chosen})
    inside = [p for p in points if checks.in_projection(prev_rows, var, p)]
    outside = [p for p in points if p not in inside]

    def straddle(a, b):
        def at(t):
            return {v: a.get(v, 0) + t * (b.get(v, 0) - a.get(v, 0)) for v in names}

        lo, hi = Fraction(0), Fraction(1)
        for _ in range(depth):
            mid = (lo + hi) / 2
            if checks.in_projection(prev_rows, var, at(mid)):
                lo = mid
            else:
                hi = mid
        return [at(lo), at(hi)]

    for _ in range(pairs):
        points += straddle(rng.choice(inside), rng.choice(outside))
    return points


WORKLOADS = {
    "probe-n4-table8": Probe,
    "audited-n4-table8": Audited,
    "analysis-cert-fm": Analysis,
}


# --- harness ---------------------------------------------------------------------


def guarded_round(workload, bec, inputs, index, tracer) -> Round:
    try:
        return workload.round(bec, inputs, index, tracer)
    except Exception:  # one broken round must not stop the run
        traceback.print_exc()
        return Round(0.0, workload.OPS, workload.OPS, 0.0, ["round raised"])


def peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest reaped
    child (a probe pool worker; no other child is started), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024


def measure(name, seed, seconds, trace) -> dict:
    deadline = perf_counter() + seconds
    workload = WORKLOADS[name]()
    tracer = tracing.Tracer() if trace else None
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as scratch:
        scratch = Path(scratch)
        # set-up: a fresh import of becsim plus the workload's inputs; the
        # last set-up's inputs feed the rounds
        setup_times = []
        for _ in range(1 if tracer else SETUP_TRIALS):
            t0 = perf_counter()
            bec = load_becsim()
            with tracer.active(bec) if tracer else contextlib.nullcontext():
                inputs = workload.setup(bec, seed, scratch)
            setup_times.append(perf_counter() - t0)

        # whole rounds only: start one more while it, and the traced round
        # after it, should still end before the deadline if they take as
        # long as the last round with its checks
        rounds, span = [], 0.0
        while not rounds or perf_counter() + (1 + trace) * span <= deadline:
            t0 = perf_counter()
            if workload.fresh_import:
                bec = load_becsim()
            rounds.append(guarded_round(workload, bec, inputs, len(rounds), None))
            span = perf_counter() - t0
        metrics = None
        if tracer:
            if workload.fresh_import:
                bec = load_becsim()
            # round 0 again: the same inputs whatever the number of rounds
            with tracer.active(bec):
                traced = guarded_round(workload, bec, inputs, 0, tracer)
            rounds.append(traced)
            metrics = tracer.metrics(traced.seconds - rounds[0].seconds)
    for index, rnd in enumerate(rounds):
        print(
            f"round {index}: {rnd.seconds:.3f} s, {rnd.attempted} ops, "
            f"{rnd.failed} failed",
            file=sys.stderr,
        )
        for problem in rnd.problems:
            print(f"round {index}: {problem}", file=sys.stderr)
    ok = [r for r in rounds if not r.failed]
    if metrics is None:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "wall_s": (statistics.median(r.seconds for r in ok) if ok else 0.0, "s"),
            "ops_per_s": (statistics.median(r.rate for r in ok) if ok else 0.0, "1/s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    return {
        "correct": all(not r.problems for r in rounds),
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    try:
        load_becsim()
    except ImportError as err:
        print(f"perfbench: cannot import becsim from {SRC}: {err}", file=sys.stderr)
        return 1
    # the probe's pool: a fixed size on any machine; in-process when traced,
    # since spans recorded in a worker would not reach this process
    os.environ["BECSIM_THREADS"] = "1" if args.trace else str(
        min(PROBE_WORKERS, len(os.sched_getaffinity(0)))
    )
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
