"""Command line front end.

One JSON config document drives each command.  Each flag overrides the
config field named by its argparse ``dest`` (``--n`` sets ``n_users``,
``--lambda`` sets ``lambda``, or ``ray`` for ``probe``), so every command
reads one merged document.  Its fields go through one set of readers:
numbers, in configs and flags alike, are parsed as exact rationals ("1/2"
and "0.5" both work), which keeps emitted tables byte-stable across runs
and platforms; booleans must be JSON booleans; a field of the wrong JSON
type is a config error.  The run fields are ``SimConfig``'s own: their
names, defaults and readers come from the dataclass, and ``_config_doc``
writes all of them back for a JSON trace.  ``derive-table`` reads the
channel (``iid_eps`` or an ``erasure`` section) as ``simulate`` does;
``regions`` reads it the same way when no ``eps_grid`` is given, as a
one-point grid of a single iid level.

Exit codes: 0 success, 1 configuration/usage error, 2 monitor violation
or replay divergence.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import sys
from fractions import Fraction
from pathlib import Path
from typing import get_type_hints

from .channel import ArrivalModel, ErasureModel, make_rng
from .coding import FULL, TABLE8, enumerate_controls
from .core import ConfigError, MonitorViolation
from .regions import build_phi_4user, feasibility_check, outer_bound_margin
from .scheduler import TransitionTable, derive_transitions
from .sim import SimConfig, run, stability_probe, summarize

_FORMATS = ("csv", "json")
# argparse dests that are not config fields
_NOT_FIELDS = frozenset({"command", "handler", "config", "out", "format"})


# --- readers ----------------------------------------------------------------


def _fraction(value, key: str) -> Fraction:
    try:
        return Fraction(str(value))
    except (ValueError, ZeroDivisionError) as err:
        raise ConfigError(f"{key}: not a rational number: {value!r}") from err


def _fraction_list(doc: dict, key: str, default=None) -> tuple:
    """A list of numbers, or one comma separated string of them."""
    value = doc.get(key, default)
    if isinstance(value, str):
        value = value.split(",")
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{key} must be a list of numbers, not {value!r}")
    return tuple(_fraction(v, key) for v in value)


def _integer(doc: dict, key: str, default: int) -> int:
    """An integer config field; anything else is a config error."""
    value = doc.get(key, default)
    try:
        number = int(value)
    except (TypeError, ValueError, OverflowError) as err:
        raise ConfigError(f"{key} must be an integer, not {value!r}") from err
    if isinstance(value, bool) or isinstance(value, float) and value != number:
        raise ConfigError(f"{key} must be an integer, not {value!r}")
    return number


def _boolean(doc: dict, key: str, default: bool) -> bool:
    value = doc.get(key, default)
    if not isinstance(value, bool):
        raise ConfigError(f"{key} must be true or false, not {value!r}")
    return value


# the reader of a SimConfig field by its annotation; others read as given
_READERS = {int: _integer, bool: _boolean}


def _section(doc: dict, key: str, default=None) -> dict:
    value = doc.get(key, default)
    if not isinstance(value, dict):
        raise ConfigError(f"{key} must be a JSON object, not {value!r}")
    return value


def _load(path, what: str) -> dict:
    try:
        doc = json.loads(Path(path).read_text())
    except OSError as err:
        raise ConfigError(f"cannot read {what} {path}: {err}") from err
    except ValueError as err:  # not UTF-8, or not JSON
        raise ConfigError(f"{what} {path} is not valid JSON: {err}") from err
    return _section({what: doc}, what)


def _document(args) -> dict:
    """The config document with every given flag laid over its field."""
    doc = {} if args.config is None else _load(args.config, "config")
    doc.update(
        (key, value)
        for key, value in vars(args).items()
        if value is not None and key not in _NOT_FIELDS
    )
    return doc


def _erasure_from_doc(doc: dict, n: int) -> ErasureModel:
    if "iid_eps" in doc:
        spec = {"iid": doc["iid_eps"]}
    else:
        spec = _section(doc, "erasure", {"iid": "1/2"})
    if "iid" in spec:
        if isinstance(spec["iid"], list):
            return ErasureModel.iid(n, _fraction_list(spec, "iid"))
        return ErasureModel.iid(n, _fraction(spec["iid"], "iid"))
    if "joint" in spec:
        pmf = {}
        for key, p in _section(spec, "joint").items():
            users = [u.strip() for u in key.split(",") if u != ""]
            if not all(u.isdecimal() for u in users):
                raise ConfigError(f"reception set {key!r} is not a user list")
            pmf[tuple(map(int, users))] = _fraction(p, "joint")
        return ErasureModel.joint(n, pmf)
    raise ConfigError("erasure section needs an 'iid' or 'joint' entry")


def _arrivals_from_doc(doc: dict) -> ArrivalModel:
    if doc.get("arrivals") is not None:
        return ArrivalModel.bernoulli(
            _fraction_list(_section(doc, "arrivals"), "bernoulli")
        )
    if doc.get("lambda") is None:
        raise ConfigError("no arrival rates: set 'lambda' or 'arrivals'")
    return ArrivalModel.bernoulli(_fraction_list(doc, "lambda"))


def _sim_config(doc: dict) -> SimConfig:
    """A run config; fields other than the four below read as annotated,
    with SimConfig's own defaults."""
    n = _integer(doc, "n_users", 2)
    values = {
        "n_users": n,
        "horizon": _integer(doc, "horizon", 10_000),
        "erasure": _erasure_from_doc(doc, n),
        "arrivals": _arrivals_from_doc(doc),
    }
    hints = get_type_hints(SimConfig)
    for f in dataclasses.fields(SimConfig):
        if f.name not in values:
            read = _READERS.get(hints[f.name], dict.get)
            values[f.name] = read(doc, f.name, f.default)
    config = SimConfig(**values)
    config.validate()
    return config


def _config_doc(config: SimConfig) -> dict:
    """Canonical JSON form of a sim config; embedded in JSON traces."""
    doc = {f.name: getattr(config, f.name) for f in dataclasses.fields(config)}
    model = config.erasure
    if model.eps is not None:
        doc["erasure"] = {"iid": [str(e) for e in model.eps]}
    else:
        doc["erasure"] = {
            "joint": {
                ",".join(str(u) for u in s): str(p) for s, p in model.pmf()
            }
        }
    doc["arrivals"] = {"bernoulli": [str(r) for r in config.arrivals.rates]}
    if not isinstance(config.seed, int):
        doc["seed"] = str(config.seed)
    return doc


# --- writers ----------------------------------------------------------------


def _trace_table(result) -> tuple:
    """A trace's CSV header (written even when no row is) and row dicts."""
    head = ["t", "q_hat", "v_hat"]
    head += [f"delivered_{i}" for i in range(result.config.n_users)]
    rows = [
        dict(
            zip(head, (m.t, m.q_hat, m.v_hat, *m.delivered)),
            control=m.control,
            case=m.case,
            retransmit=int(m.retransmit),
            flush=int(m.flush),
            overhead=m.overhead,
        )
        for m in result.trace
    ]
    return head + ["control", "case", "retransmit", "flush", "overhead"], rows


def _dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=1) + "\n"


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def _write_table(args, name: str, rows: list, doc=None, fields=None) -> Path:
    """Rows as ``name.csv``, or doc (the rows by default) as ``name.json``,
    in the output directory; a None cell is an empty CSV field."""
    path = Path(args.out) / f"{name}.{args.format}"
    if args.format == "json":
        _write(path, _dump_json(rows if doc is None else doc))
        return path
    buf = io.StringIO()
    writer = csv.DictWriter(
        buf, fieldnames=fields or list(rows[0]), lineterminator="\n"
    )
    writer.writeheader()
    writer.writerows(rows)
    _write(path, buf.getvalue())
    return path


# --- commands -------------------------------------------------------------


def _cmd_simulate(args) -> int:
    config = _sim_config(_document(args))
    result = run(config)
    fields, rows = _trace_table(result)
    doc = {"config": _config_doc(config), "rows": rows}
    path = _write_table(args, "trace", rows, doc=doc, fields=fields)
    summary = Path(args.out) / "summary.json"
    _write(summary, _dump_json(summarize(result)))
    print(f"wrote {path} and {summary}")
    return 0


def _cmd_probe(args) -> int:
    doc = _document(args)
    key = "ray" if doc.get("ray") else "lambda"
    if doc.get(key) is None:
        raise ConfigError("probe needs a 'ray' (or --lambda)")
    ray = tuple(float(f) for f in _fraction_list(doc, key))
    scales = _fraction_list(doc, "scales", ("0.9", "1.1"))
    doc.setdefault("lambda", ["0"] * _integer(doc, "n_users", 2))
    reports = stability_probe(
        _sim_config(doc),
        ray,
        tuple(float(s) for s in scales),
        seeds=_integer(doc, "seeds", 5),
        window=_integer(doc, "window", 100_000),
        slope_threshold=float(
            _fraction(doc.get("slope_threshold", 1e-3), "slope_threshold")
        ),
    )
    rows = [
        {"scale": rep["scale"], "verdict": rep["verdict"], "max_q": rep["max_q"]}
        | {f"slope_{k}": s for k, s in enumerate(rep["slopes"])}
        for rep in reports
    ]
    path = _write_table(args, "probe", rows, doc=reports)
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
    doc = _document(args)
    n = _integer(doc, "n_users", 4)
    if "iid_eps" in doc:
        eps_grid = (_fraction(doc["iid_eps"], "iid_eps"),)
    elif "erasure" in doc and "eps_grid" not in doc:
        model = _erasure_from_doc(doc, n)
        if model.eps is None or len(set(model.eps)) != 1:
            raise ConfigError(
                "regions sweeps iid erasure levels: give one 'iid' value"
            )
        eps_grid = model.eps[:1]
    else:
        eps_grid = _fraction_list(doc, "eps_grid", ("1/4", "1/2", "3/4"))
    count = _integer(doc, "rays", 5)
    boundary = _fraction(doc.get("boundary", "99/100"), "boundary")
    check = _boolean(doc, "check_cert", False)
    if check and n != 4:
        raise ConfigError("--check-cert requires --n 4")
    if count < 1 or not eps_grid:
        raise ConfigError("regions needs at least one ray and one erasure level")
    if 1 in eps_grid:
        raise ConfigError("erasure probability 1 leaves no rate region")
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
    path = _write_table(args, "regions", rows)
    if check:
        feasible = sum(1 for r in rows if r["feasible"])
        print(f"{feasible}/{len(rows)} grid points feasible")
    print(f"wrote {path}")
    return 0


def _cmd_derive_table(args) -> int:
    doc = _document(args)
    n = _integer(doc, "n_users", 2)
    model = _erasure_from_doc(doc, n)
    catalog = enumerate_controls(n, doc.get("restriction", FULL))
    table = TransitionTable.for_catalog(catalog, model)
    path = Path(args.out) / f"transitions_n{n}.json"
    _write(path, table.to_json() + "\n")
    print(f"wrote {path}")
    return 0


def _cmd_rpm_replay(args) -> int:
    doc = _load(args.trace, "trace")
    stored = doc.get("rows")
    if not isinstance(stored, list):
        raise ConfigError("replay needs a JSON trace with config and rows")
    # replay always through the fully audited engine
    conf = dict(_section(doc, "config"), engine="object", audit_every=1)
    conf.update(decode_monitor=True, overhead_monitor=True)
    result = run(_sim_config(conf))
    fresh = _trace_table(result)[1]
    if len(fresh) != len(stored):
        print(
            f"replay divergence: {len(stored)} stored rows, {len(fresh)} fresh",
            file=sys.stderr,
        )
        return 2
    for a, b in zip(stored, fresh):
        if a != b:
            print(f"replay divergence at t={b['t']}", file=sys.stderr)
            print(f" stored: {a}", file=sys.stderr)
            print(f" replay: {b}", file=sys.stderr)
            return 2
    print(f"replay ok: {len(fresh)} rows re-audited")
    return 0


# --- argument plumbing ------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    # each dest outside _NOT_FIELDS is the config field the flag overrides
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", help="JSON config document")
    shared.add_argument("--seed", help="run seed (string or integer)")
    shared.add_argument("--out", default=".", help="output directory")
    shared.add_argument("--format", choices=_FORMATS, default="json")
    shared.add_argument("--n", dest="n_users", type=int, help="number of users")
    shared.add_argument("--iid-eps", dest="iid_eps", help="iid erasure probability")
    shared.add_argument("--restriction", choices=(FULL, TABLE8))
    rates = "comma separated per-user arrival rates"

    parser = argparse.ArgumentParser(
        prog="becsim",
        description="coded broadcast queueing simulator and rate-region tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", parents=[shared], help="run one simulation")
    sim.add_argument("--lambda", help=rates)
    sim.add_argument("--horizon", type=int)
    sim.add_argument("--decimate", type=int)
    sim.add_argument("--engine", choices=("object", "counts"))
    sim.add_argument("--policy", choices=("maxweight", "random"))
    sim.set_defaults(handler=_cmd_simulate)

    probe = sub.add_parser(
        "probe", parents=[shared], help="stability slope test along a ray"
    )
    probe.add_argument("--lambda", dest="ray", help=f"the ray: {rates}")
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
        default=None,
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
