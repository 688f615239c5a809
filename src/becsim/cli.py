"""Command line front end.

One JSON config document drives each command; flags override individual
fields.  Numeric strings in configs and flags are parsed as exact
rationals ("1/2" and "0.5" both work), which keeps emitted tables
byte-stable across runs and platforms.

Exit codes: 0 success, 1 configuration/usage error, 2 monitor violation
or replay divergence.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

from .channel import ArrivalModel, ErasureModel, make_rng
from .coding import FULL, TABLE8, enumerate_controls
from .core import ConfigError, MonitorViolation
from .regions import build_phi_4user, feasibility_check, outer_bound_margin
from .scheduler import TransitionTable, derive_transitions
from .sim import SimConfig, run, stability_probe, summarize

_FORMATS = ("csv", "json")


def _fraction(text) -> Fraction:
    try:
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError) as err:
        raise ConfigError(f"not a rational number: {text!r}") from err


def _fraction_list(value) -> tuple:
    if isinstance(value, str):
        value = value.split(",")
    return tuple(_fraction(v) for v in value)


def _integer(doc: dict, key: str, default: int) -> int:
    """An integer config field; anything else is a config error."""
    value = doc.get(key, default)
    try:
        number = int(value)
    except (TypeError, ValueError, OverflowError) as err:
        raise ConfigError(f"{key} must be an integer, not {value!r}") from err
    if isinstance(value, float) and value != number:
        raise ConfigError(f"{key} must be an integer, not {value!r}")
    return number


def _load_config(path) -> dict:
    if path is None:
        return {}
    try:
        doc = json.loads(Path(path).read_text())
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    except json.JSONDecodeError as err:
        raise ConfigError(f"config {path} is not valid JSON: {err}") from err
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    return doc


def _merge_flags(doc: dict, args, keys) -> dict:
    merged = dict(doc)
    for flag, key in keys.items():
        value = getattr(args, flag, None)
        if value is not None:
            merged[key] = value
    return merged


def _erasure_from_doc(doc: dict, n: int) -> ErasureModel:
    spec = doc.get("erasure", {"iid": doc.get("iid_eps", "1/2")})
    if "iid" in spec:
        eps = spec["iid"]
        if isinstance(eps, (list, tuple)):
            return ErasureModel.iid(n, [_fraction(e) for e in eps])
        return ErasureModel.iid(n, _fraction(eps))
    if "joint" in spec:
        pmf = {}
        for key, p in spec["joint"].items():
            users = tuple(int(u) for u in key.split(",") if u != "")
            pmf[users] = _fraction(p)
        return ErasureModel.joint(n, pmf)
    raise ConfigError("erasure section needs an 'iid' or 'joint' entry")


def _arrivals_from_doc(doc: dict, n: int) -> ArrivalModel:
    spec = doc.get("arrivals")
    if spec is None:
        rates = doc.get("lambda")
        if rates is None:
            raise ConfigError("no arrival rates: set 'lambda' or 'arrivals'")
        return ArrivalModel.bernoulli(_fraction_list(rates))
    if "bernoulli" in spec:
        return ArrivalModel.bernoulli(_fraction_list(spec["bernoulli"]))
    raise ConfigError("arrivals section needs a 'bernoulli' entry")


def _sim_config(doc: dict) -> SimConfig:
    n = _integer(doc, "n_users", 2)
    config = SimConfig(
        n_users=n,
        horizon=_integer(doc, "horizon", 10_000),
        erasure=_erasure_from_doc(doc, n),
        arrivals=_arrivals_from_doc(doc, n),
        restriction=doc.get("restriction", FULL),
        seed=doc.get("seed", 0),
        engine=doc.get("engine", "object"),
        policy=doc.get("policy", "maxweight"),
        retransmit_mode=doc.get("retransmit_mode", "sticky"),
        flush_on_empty=bool(doc.get("flush_on_empty", True)),
        audit_every=_integer(doc, "audit_every", 1),
        deep_audit_every=_integer(doc, "deep_audit_every", 1000),
        decode_monitor=bool(doc.get("decode_monitor", True)),
        overhead_monitor=bool(doc.get("overhead_monitor", True)),
        decimate=_integer(doc, "decimate", 1),
    )
    config.validate()
    return config


def _config_doc(config: SimConfig) -> dict:
    """Canonical JSON form of a sim config; embedded in JSON traces."""
    model = config.erasure
    if model.eps is not None:
        erasure = {"iid": [str(e) for e in model.eps]}
    else:
        erasure = {
            "joint": {
                ",".join(str(u) for u in s): str(p) for s, p in model.pmf()
            }
        }
    seed = config.seed if isinstance(config.seed, int) else str(config.seed)
    return {
        "n_users": config.n_users,
        "horizon": config.horizon,
        "seed": seed,
        "erasure": erasure,
        "arrivals": {"bernoulli": [str(r) for r in config.arrivals.rates]},
        "restriction": config.restriction,
        "engine": config.engine,
        "policy": config.policy,
        "retransmit_mode": config.retransmit_mode,
        "flush_on_empty": config.flush_on_empty,
        "audit_every": config.audit_every,
        "deep_audit_every": config.deep_audit_every,
        "decode_monitor": config.decode_monitor,
        "overhead_monitor": config.overhead_monitor,
        "decimate": config.decimate,
    }


def _row_dict(m, n: int) -> dict:
    row = {"t": m.t, "q_hat": m.q_hat, "v_hat": m.v_hat}
    for i in range(n):
        row[f"delivered_{i}"] = m.delivered[i]
    row["control"] = m.control
    row["case"] = m.case
    row["retransmit"] = int(m.retransmit)
    row["flush"] = int(m.flush)
    row["overhead"] = m.overhead
    return row


def _trace_csv(result) -> str:
    n = result.config.n_users
    buf = io.StringIO()
    fields = list(_row_dict_header(n))
    writer = csv.DictWriter(buf, fieldnames=fields, lineterminator="\n")
    writer.writeheader()
    for m in result.trace:
        row = _row_dict(m, n)
        row["control"] = "" if row["control"] is None else row["control"]
        row["case"] = "" if row["case"] is None else row["case"]
        writer.writerow(row)
    return buf.getvalue()


def _row_dict_header(n: int):
    yield "t"
    yield "q_hat"
    yield "v_hat"
    for i in range(n):
        yield f"delivered_{i}"
    yield from ("control", "case", "retransmit", "flush", "overhead")


def _dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=1) + "\n"


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


# --- commands -------------------------------------------------------------


def _cmd_simulate(args) -> int:
    doc = _merge_flags(
        _load_config(args.config),
        args,
        {
            "seed": "seed",
            "horizon": "horizon",
            "n": "n_users",
            "iid_eps": "iid_eps",
            "lam": "lambda",
            "restriction": "restriction",
            "decimate": "decimate",
            "engine": "engine",
            "policy": "policy",
        },
    )
    if "iid_eps" in doc:
        doc["erasure"] = {"iid": doc.pop("iid_eps")}
    config = _sim_config(doc)
    result = run(config)
    out = Path(args.out)
    if args.format == "csv":
        _write(out / "trace.csv", _trace_csv(result))
        trace_path = out / "trace.csv"
    else:
        rows = [_row_dict(m, config.n_users) for m in result.trace]
        _write(
            out / "trace.json",
            _dump_json({"config": _config_doc(config), "rows": rows}),
        )
        trace_path = out / "trace.json"
    _write(out / "summary.json", _dump_json(summarize(result)))
    print(f"wrote {trace_path} and {out / 'summary.json'}")
    return 0


def _cmd_probe(args) -> int:
    doc = _merge_flags(
        _load_config(args.config),
        args,
        {
            "seed": "seed",
            "n": "n_users",
            "iid_eps": "iid_eps",
            "lam": "ray",
            "restriction": "restriction",
            "scales": "scales",
            "window": "window",
            "seeds": "seeds",
        },
    )
    if "iid_eps" in doc:
        doc["erasure"] = {"iid": doc.pop("iid_eps")}
    ray = doc.get("ray") or doc.get("lambda")
    if ray is None:
        raise ConfigError("probe needs a 'ray' (or --lambda)")
    ray = tuple(float(f) for f in _fraction_list(ray))
    scales = doc.get("scales", ("0.9", "1.1"))
    if isinstance(scales, str):
        scales = scales.split(",")
    scales = tuple(float(s) for s in scales)
    doc.setdefault("horizon", 1)
    doc.setdefault("lambda", ["0"] * _integer(doc, "n_users", 2))
    config = _sim_config(doc)
    reports = stability_probe(
        config,
        ray,
        scales,
        seeds=_integer(doc, "seeds", 5),
        window=_integer(doc, "window", 100_000),
        slope_threshold=float(doc.get("slope_threshold", 1e-3)),
        engine=doc.get("probe_engine", "counts"),
    )
    out = Path(args.out)
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["scale", "verdict", "max_q"] + [
            f"slope_{k}" for k in range(len(reports[0]["slopes"]))
        ])
        for rep in reports:
            writer.writerow(
                [rep["scale"], rep["verdict"], rep["max_q"]] + rep["slopes"]
            )
        _write(out / "probe.csv", buf.getvalue())
        path = out / "probe.csv"
    else:
        _write(out / "probe.json", _dump_json(reports))
        path = out / "probe.json"
    for rep in reports:
        print(f"scale {rep['scale']}: {rep['verdict']}")
    print(f"wrote {path}")
    return 0


def _regions_rays(n, eps, count, boundary, seed):
    """Deterministic sorted-direction rays scaled onto the given boundary
    fraction of the sum identity."""
    rng = make_rng(seed, "regions")
    rays = []
    for _ in range(count):
        weights = sorted(
            (Fraction(rng.randrange(1, 1000), 1000) for _ in range(n)),
            reverse=True,
        )
        denom = sum(w / (1 - eps ** (k + 1)) for k, w in enumerate(weights))
        rays.append(tuple(boundary * w / denom for w in weights))
    return rays


def _cmd_regions(args) -> int:
    doc = _merge_flags(
        _load_config(args.config),
        args,
        {
            "seed": "seed",
            "n": "n_users",
            "iid_eps": "iid_eps",
            "rays": "rays",
            "boundary": "boundary",
        },
    )
    n = _integer(doc, "n_users", 4)
    if "iid_eps" in doc:
        eps_grid = [_fraction(doc["iid_eps"])]
    else:
        eps_grid = [_fraction(e) for e in doc.get("eps_grid", ("1/4", "1/2", "3/4"))]
    count = _integer(doc, "rays", 5)
    boundary = _fraction(doc.get("boundary", "99/100"))
    check = bool(args.check_cert or doc.get("check_cert", False))
    if check and n != 4:
        raise ConfigError("--check-cert requires --n 4")
    seed = doc.get("seed", 0)
    catalog = enumerate_controls(n, TABLE8) if check else None
    rows = []
    for eps in eps_grid:
        model = ErasureModel.iid(n, eps)
        transitions = None
        if check:
            transitions = {
                spec: derive_transitions(spec, model) for spec in catalog
            }
        for ridx, rates in enumerate(
            _regions_rays(n, eps, count, boundary, seed)
        ):
            row = {
                "eps": str(eps),
                "ray": ridx,
                **{f"lam_{i}": str(r) for i, r in enumerate(rates)},
                "outer_margin": str(outer_bound_margin(rates, model)),
            }
            if check:
                cert = build_phi_4user(rates, eps)
                verdict = feasibility_check(
                    rates, cert, model, catalog, transitions=transitions
                )
                row["phi_total"] = str(cert.total())
                row["feasible"] = verdict["feasible"]
                row["worst_slack"] = str(verdict["worst_slack"])
            rows.append(row)
    out = Path(args.out)
    if args.format == "json":
        _write(out / "regions.json", _dump_json(rows))
        path = out / "regions.json"
    else:
        buf = io.StringIO()
        writer = csv.DictWriter(
            buf, fieldnames=list(rows[0]), lineterminator="\n"
        )
        writer.writeheader()
        writer.writerows(rows)
        _write(out / "regions.csv", buf.getvalue())
        path = out / "regions.csv"
    if check:
        feasible = sum(1 for r in rows if r["feasible"])
        print(f"{feasible}/{len(rows)} grid points feasible")
    print(f"wrote {path}")
    return 0


def _cmd_derive_table(args) -> int:
    doc = _merge_flags(
        _load_config(args.config),
        args,
        {"n": "n_users", "iid_eps": "iid_eps", "restriction": "restriction"},
    )
    n = _integer(doc, "n_users", 2)
    eps = _fraction(doc.get("iid_eps", "1/2"))
    restriction = doc.get("restriction", FULL)
    model = ErasureModel.iid(n, eps)
    catalog = enumerate_controls(n, restriction)
    table = TransitionTable.for_catalog(catalog, model)
    table.validate()
    out = Path(args.out)
    path = out / f"transitions_n{n}.json"
    _write(path, table.to_json() + "\n")
    print(f"wrote {path}")
    return 0


def _cmd_rpm_replay(args) -> int:
    try:
        doc = json.loads(Path(args.trace).read_text())
    except OSError as err:
        raise ConfigError(f"cannot read trace {args.trace}: {err}") from err
    except json.JSONDecodeError as err:
        raise ConfigError(f"trace is not valid JSON: {err}") from err
    if "config" not in doc or "rows" not in doc:
        raise ConfigError("replay needs a JSON trace with config and rows")
    conf = dict(doc["config"])
    # replay always through the fully audited engine
    conf["engine"] = "object"
    conf["audit_every"] = 1
    conf["decode_monitor"] = True
    conf["overhead_monitor"] = True
    config = _sim_config(conf)
    result = run(config)
    fresh = [_row_dict(m, config.n_users) for m in result.trace]
    stored = doc["rows"]
    if len(fresh) != len(stored):
        print(
            f"replay divergence: {len(stored)} stored rows, {len(fresh)} fresh",
            file=sys.stderr,
        )
        return 2
    for a, b in zip(stored, fresh):
        if dict(a) != b:
            print(f"replay divergence at t={b['t']}", file=sys.stderr)
            print(f" stored: {a}", file=sys.stderr)
            print(f" replay: {b}", file=sys.stderr)
            return 2
    print(f"replay ok: {len(fresh)} rows re-audited")
    return 0


# --- argument plumbing ------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", help="JSON config document")
    shared.add_argument("--seed", help="run seed (string or integer)")
    shared.add_argument("--out", default=".", help="output directory")
    shared.add_argument("--format", choices=_FORMATS, default="json")
    shared.add_argument("--n", type=int, help="number of users")
    shared.add_argument("--iid-eps", dest="iid_eps", help="iid erasure probability")
    shared.add_argument(
        "--lambda", dest="lam", help="comma separated per-user arrival rates"
    )
    shared.add_argument("--restriction", choices=(FULL, TABLE8))

    parser = argparse.ArgumentParser(
        prog="becsim",
        description="coded broadcast queueing simulator and rate-region tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", parents=[shared], help="run one simulation")
    sim.add_argument("--horizon", type=int)
    sim.add_argument("--decimate", type=int)
    sim.add_argument("--engine", choices=("object", "counts"))
    sim.add_argument("--policy", choices=("maxweight", "random"))
    sim.set_defaults(handler=_cmd_simulate)

    probe = sub.add_parser(
        "probe", parents=[shared], help="stability slope test along a ray"
    )
    probe.add_argument("--scales", help="comma separated ray multipliers")
    probe.add_argument("--window", type=int)
    probe.add_argument("--seeds", type=int)
    probe.set_defaults(handler=_cmd_probe)

    regions = sub.add_parser(
        "regions", parents=[shared], help="margin / certificate grid sweep"
    )
    regions.add_argument("--rays", type=int, help="rays per erasure level")
    regions.add_argument("--boundary", help="boundary fraction, e.g. 99/100")
    regions.add_argument(
        "--check-cert",
        action="store_true",
        help="build and verify the 4-user certificate at each point",
    )
    regions.set_defaults(handler=_cmd_regions)

    table = sub.add_parser(
        "derive-table", parents=[shared], help="dump exact transition tables"
    )
    table.set_defaults(handler=_cmd_derive_table)

    replay = sub.add_parser(
        "rpm-replay",
        parents=[shared],
        help="re-run a JSON trace through the audited engine and compare",
    )
    replay.add_argument("trace", help="trace.json produced by simulate")
    replay.set_defaults(handler=_cmd_rpm_replay)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        # argparse reserves status 2 for usage errors; monitor violations
        # own that code here, so usage problems map to 1
        return 0 if not err.code else 1
    try:
        return args.handler(args)
    except MonitorViolation as err:
        print(f"monitor violation: {err}", file=sys.stderr)
        return 2
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
