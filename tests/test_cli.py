"""Command line behavior: config merging, output stability, exit codes,
also over random documents with malformed fields.

main() is called in-process with explicit argv so the tests stay fast;
outputs land in tmp_path.
"""

import dataclasses
import json
import os
import pathlib
import tempfile
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from becsim.channel import ArrivalModel, ErasureModel
from becsim.cli import _config_doc, _sim_config, main
from becsim.coding import TABLE8
from becsim.core import ConfigError, MonitorViolation
from becsim.sim import SimConfig

GOLDEN = pathlib.Path(__file__).parent / "golden"


def simulate_args(out, seed="t", horizon="1200", fmt="json", extra=()):
    return [
        "simulate",
        "--n", "2",
        "--iid-eps", "0.5",
        "--lambda", "0.3,0.3",
        "--horizon", horizon,
        "--seed", seed,
        "--out", str(out),
        "--format", fmt,
        *extra,
    ]


class TestSimulate:
    def test_writes_trace_and_summary(self, tmp_path, capsys):
        assert main(simulate_args(tmp_path)) == 0
        doc = json.loads((tmp_path / "trace.json").read_text())
        assert doc["config"]["n_users"] == 2
        assert doc["config"]["erasure"] == {"iid": ["1/2", "1/2"]}
        assert len(doc["rows"]) == 1200
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["horizon"] == 1200
        assert sum(summary["delivered_total"]) <= sum(summary["arrivals_total"])
        assert "wrote" in capsys.readouterr().out

    def test_csv_trace_shape(self, tmp_path):
        assert main(simulate_args(tmp_path, fmt="csv")) == 0
        lines = (tmp_path / "trace.csv").read_text().splitlines()
        assert lines[0] == (
            "t,q_hat,v_hat,delivered_0,delivered_1,"
            "control,case,retransmit,flush,overhead"
        )
        assert len(lines) == 1201

    def test_byte_identical_for_same_seed(self, tmp_path):
        for sub in ("a", "b"):
            assert main(simulate_args(tmp_path / sub, fmt="csv")) == 0
        read = lambda sub, name: (tmp_path / sub / name).read_bytes()
        assert read("a", "trace.csv") == read("b", "trace.csv")
        assert read("a", "summary.json") == read("b", "summary.json")
        assert main(simulate_args(tmp_path / "c", seed="other", fmt="csv")) == 0
        assert read("a", "trace.csv") != read("c", "trace.csv")

    def test_config_file_with_flag_override(self, tmp_path):
        conf = tmp_path / "conf.json"
        conf.write_text(
            json.dumps(
                {
                    "n_users": 2,
                    "horizon": 50,
                    "lambda": ["1/5", "1/5"],
                    "erasure": {"iid": "1/2"},
                    "seed": "base",
                }
            )
        )
        args = [
            "simulate",
            "--config", str(conf),
            "--horizon", "75",
            "--out", str(tmp_path),
        ]
        assert main(args) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["horizon"] == 75  # flag beats file
        assert summary["seed"] == "base"  # file survives where no flag given

    def test_decimate_flag(self, tmp_path):
        assert main(simulate_args(tmp_path, extra=("--decimate", "100"))) == 0
        doc = json.loads((tmp_path / "trace.json").read_text())
        assert [r["t"] for r in doc["rows"]] == list(range(0, 1200, 100))


class TestReplay:
    def test_roundtrip_clean(self, tmp_path):
        assert main(simulate_args(tmp_path)) == 0
        assert main(["rpm-replay", str(tmp_path / "trace.json")]) == 0

    def test_divergence_exits_two(self, tmp_path, capsys):
        assert main(simulate_args(tmp_path)) == 0
        doc = json.loads((tmp_path / "trace.json").read_text())
        doc["rows"][7]["v_hat"] += 1
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["rpm-replay", str(bad)]) == 2
        assert "divergence at t=7" in capsys.readouterr().err

    def test_counts_trace_replays_through_audited_engine(self, tmp_path):
        # a counts-engine trace must survive object-engine re-audit
        assert main(simulate_args(tmp_path, extra=("--engine", "counts"))) == 0
        assert main(["rpm-replay", str(tmp_path / "trace.json")]) == 0

    def test_csv_trace_rejected(self, tmp_path):
        assert main(simulate_args(tmp_path, fmt="csv")) == 0
        assert main(["rpm-replay", str(tmp_path / "trace.csv")]) == 1

    def test_every_run_field_survives_the_trace(self):
        config = SimConfig(
            n_users=4,
            horizon=50,
            erasure=ErasureModel.joint(
                4, {(): F(1, 2), (1,): F(1, 4), (0, 1, 2, 3): F(1, 4)}
            ),
            arrivals=ArrivalModel.bernoulli((F(1, 5), F(1, 7), 0, F(1, 9))),
            restriction=TABLE8,
            seed="every-field",
            engine="counts",
            policy="random",
            retransmit_mode="reselect",
            flush_on_empty=False,
            audit_every=3,
            deep_audit_every=7,
            decode_monitor=False,
            overhead_monitor=False,
            decimate=5,
        )
        for field in dataclasses.fields(SimConfig):
            if field.default is not dataclasses.MISSING:
                assert getattr(config, field.name) != field.default, field.name
        doc = _config_doc(config)
        assert _config_doc(_sim_config(json.loads(json.dumps(doc)))) == doc

    def test_joint_arrivals_are_not_written_as_bernoulli(self, tmp_path, capsys):
        config = SimConfig(
            n_users=2,
            horizon=20,
            erasure=ErasureModel.iid(2, F(1, 2)),
            arrivals=ArrivalModel.joint(2, {(0, 0): 1 / 2, (2, 1): 1 / 2}),
        )
        with pytest.raises(ConfigError, match="Bernoulli"):
            _config_doc(config)
        with mock.patch("becsim.cli._sim_config", return_value=config):
            assert main(simulate_args(tmp_path)) == 1
        assert "config error:" in capsys.readouterr().err


class TestDeriveTable:
    def test_two_user_table_matches_golden(self, tmp_path):
        assert main(["derive-table", "--n", "2", "--out", str(tmp_path)]) == 0
        got = (tmp_path / "transitions_n2.json").read_bytes()
        want = (GOLDEN / "transitions_n2_iid_half.json").read_bytes()
        assert got == want

    def test_config_erasure_section_is_read(self, tmp_path):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"erasure": {"iid": "1/3"}}))
        runs = {
            "flag": ["--iid-eps", "1/3"],
            "config": ["--config", str(config)],
        }
        for name, extra in runs.items():
            out = tmp_path / name
            assert main(["derive-table", "--n", "2", "--out", str(out), *extra]) == 0
        flag = (tmp_path / "flag" / "transitions_n2.json").read_bytes()
        assert (tmp_path / "config" / "transitions_n2.json").read_bytes() == flag
        assert flag != (GOLDEN / "transitions_n2_iid_half.json").read_bytes()

    def test_csv_format_is_a_config_error(self, tmp_path, capsys):
        args = ["derive-table", "--n", "2", "--format", "csv", "--out", str(tmp_path)]
        assert main(args) == 1
        assert "config error: derive-table writes JSON only" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())


class TestRegions:
    def test_check_cert_all_feasible(self, tmp_path, capsys):
        args = [
            "regions",
            "--n", "4",
            "--iid-eps", "1/2",
            "--rays", "2",
            "--check-cert",
            "--out", str(tmp_path),
            "--format", "csv",
        ]
        assert main(args) == 0
        assert "2/2 grid points feasible" in capsys.readouterr().out
        lines = (tmp_path / "regions.csv").read_text().splitlines()
        header = lines[0].split(",")
        for line in lines[1:]:
            row = dict(zip(header, line.split(",")))
            assert row["feasible"] == "True"
            assert row["outer_margin"] == "99/100"
            assert row["phi_total"] == "99/100"
            assert row["worst_slack"] == "0"

    def test_check_cert_requires_four_users(self, tmp_path):
        args = [
            "regions", "--n", "3", "--check-cert", "--out", str(tmp_path),
        ]
        assert main(args) == 1

    def test_margin_only_sweep_any_n(self, tmp_path):
        args = [
            "regions",
            "--n", "3",
            "--iid-eps", "2/5",
            "--rays", "3",
            "--out", str(tmp_path),
        ]
        assert main(args) == 0
        rows = json.loads((tmp_path / "regions.json").read_text())
        assert len(rows) == 3
        assert all(r["outer_margin"] == "99/100" for r in rows)

    @pytest.mark.parametrize("iid", ["1/3", ["1/3", "1/3"]], ids=["scalar", "equal-list"])
    def test_config_erasure_section_is_read(self, tmp_path, iid):
        config = tmp_path / "c.json"
        config.write_text(
            json.dumps({"n_users": 2, "erasure": {"iid": iid}, "rays": 1})
        )
        args = ["regions", "--config", str(config), "--out", str(tmp_path)]
        assert main(args) == 0
        rows = json.loads((tmp_path / "regions.json").read_text())
        assert [r["eps"] for r in rows] == ["1/3"]


class TestProbe:
    def test_verdicts_both_sides(self, tmp_path, capsys):
        args = [
            "probe",
            "--n", "2",
            "--iid-eps", "0.5",
            "--lambda", "0.3,0.3",
            "--scales", "0.5,1.5",
            "--window", "1500",
            "--seeds", "2",
            "--seed", "pr",
            "--out", str(tmp_path),
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "scale 0.5: bounded" in out
        assert "scale 1.5: growing" in out
        reports = json.loads((tmp_path / "probe.json").read_text())
        assert [r["verdict"] for r in reports] == ["bounded", "growing"]

    def test_needs_a_ray(self, tmp_path):
        assert main(["probe", "--n", "2", "--out", str(tmp_path)]) == 1


class TestExitCodes:
    def test_usage_errors_map_to_one(self):
        assert main([]) == 1
        assert main(["no-such-command"]) == 1
        assert main(["simulate", "--format", "xml"]) == 1

    def test_config_errors_map_to_one(self, tmp_path):
        assert main(simulate_args(tmp_path, extra=("--iid-eps", "3/2"))) == 1
        assert main(["simulate", "--n", "2", "--iid-eps", "1/2"]) == 1  # no rates
        bad = tmp_path / "broken.json"
        bad.write_text("{not json")
        assert main(["simulate", "--config", str(bad)]) == 1
        assert main(["simulate", "--config", str(tmp_path / "absent.json")]) == 1
        assert main(simulate_args(tmp_path, extra=("--lambda", "0.3"))) == 1

    @pytest.mark.parametrize(
        "field", ["n_users", "horizon", "audit_every", "deep_audit_every", "decimate"]
    )
    @pytest.mark.parametrize("value", ["abc", 2.5, None])
    def test_non_integer_field_maps_to_one(self, tmp_path, capsys, field, value):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"lambda": ["1/5", "1/5"], field: value}))
        args = ["simulate", "--config", str(conf), "--out", str(tmp_path)]
        assert main(args) == 1
        assert "config error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, doc, extra",
        [
            ("simulate", {"erasure": {"joint": {"x": "1"}}}, []),
            ("simulate", {"erasure": {"joint": {"-1": "1"}}}, []),
            ("simulate", {"erasure": 5}, []),
            ("simulate", {"erasure": {"joint": 3}}, []),
            ("simulate", {"lambda": 5}, []),
            ("simulate", {"arrivals": 5}, []),
            ("probe", {"ray": 5}, []),
            ("probe", {}, ["--scales", "x"]),
            ("probe", {"slope_threshold": "abc"}, []),
            ("probe", {}, ["--seeds", "0"]),
            ("regions", {"eps_grid": 5}, []),
            ("regions", {}, ["--rays", "0", "--format", "csv"]),
            ("regions", {}, ["--iid-eps", "1"]),
            ("simulate", {"flush_on_empty": "false"}, []),
            ("regions", {}, ["--n", "17"]),
            ("probe", {"ray": [1] * 17}, ["--n", "17"]),
            ("regions", {}, ["--n", "0"]),
            ("regions", {"erasure": {"iid": ["1/3", "1/4"]}}, []),
            ("regions", {"erasure": {"joint": {"0,1": "1"}}}, []),
            ("simulate", {"erasure": {"joint": {"20": "1/2", "1": "1/2"}}}, []),
            ("derive-table", {"erasure": {"joint": {"20": "1/2", "1": "1/2"}}}, []),
        ],
        ids=[
            "joint-key-not-a-number",
            "joint-key-negative",
            "erasure-not-an-object",
            "joint-not-an-object",
            "lambda-not-a-list",
            "arrivals-not-an-object",
            "ray-not-a-list",
            "scales-not-numbers",
            "slope-threshold-not-a-number",
            "no-seeds",
            "eps-grid-not-a-list",
            "no-rays-csv",
            "erasure-probability-one",
            "boolean-as-string",
            "regions-17-users",
            "probe-17-users",
            "regions-no-users",
            "regions-per-user-erasure",
            "regions-joint-erasure",
            "joint-key-above-user-cap",
            "derive-table-joint-key-above-user-cap",
        ],
    )
    def test_malformed_field_maps_to_one(self, tmp_path, capsys, command, doc, extra):
        base = {
            "simulate": {"n_users": 2, "horizon": 20, "lambda": ["1/5", "1/5"]},
            "probe": {"n_users": 2, "ray": [1, 1], "window": 20, "seeds": 1},
            "regions": {"n_users": 2, "rays": 1},
            "derive-table": {"n_users": 2},
        }[command]
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({**base, **doc}))
        args = [command, "--config", str(conf), "--out", str(tmp_path), *extra]
        assert main(args) == 1
        assert "config error:" in capsys.readouterr().err

    def test_monitor_violation_maps_to_two(self, tmp_path, monkeypatch):
        import becsim.cli as cli_mod

        def boom(config, **kw):
            raise MonitorViolation(["synthetic"], slot=3)

        monkeypatch.setattr(cli_mod, "run", boom)
        assert main(simulate_args(tmp_path)) == 2

    def test_help_maps_to_zero(self):
        assert main(["--help"]) == 0


# Values of the wrong JSON type or out of range for any field.
BAD = ["abc", "", "1/0", "3/2", "-1", -1, 0, 2.5, None, True, [], {}, ["x"], {"a": 1}]
RATES = ["1/5", "1/5"]
# field: (valid values, further values that are wrong for this field)
FIELDS = {
    "simulate": {
        "n_users": ([2], [3, 17]),
        "horizon": ([1, 40], []),
        "lambda": ([RATES, "1/5,1/10"], [["1/5"] * 3]),
        "arrivals": ([{"bernoulli": RATES}], [{"bernoulli": 5}, {"poisson": RATES}]),
        "erasure": (
            [
                {"iid": "1/2"},
                {"iid": ["1/2", "1/3"]},
                {"joint": {"": "1/4", "0": "1/4", "0,1": "1/2"}},
            ],
            [{"joint": {"0,x": "1"}}, {"joint": {"0": "1/2"}}, {"markov": "1/2"}],
        ),
        "iid_eps": (["1/3", "0", "1", 0.25], ["5/4"]),
        "restriction": (["full"], ["table8"]),
        "seed": (["s", 3], []),
        "engine": (["object", "counts"], ["abacus"]),
        "policy": (["maxweight", "random"], ["fifo"]),
        "retransmit_mode": (["sticky", "reselect"], ["never"]),
        "flush_on_empty": ([True, False], ["false"]),
        "audit_every": ([0, 1, 7], []),
        "deep_audit_every": ([0, 1, 10], []),
        "decode_monitor": ([True, False], ["yes"]),
        "overhead_monitor": ([True, False], [1]),
        "decimate": ([0, 1, 3], []),
    },
    "probe": {
        "n_users": ([2], [3]),
        "ray": ([["1", "1"], "3,1"], [["1"], [0, 0]]),
        "lambda": ([RATES], [["1/5"] * 3]),
        "iid_eps": (["1/2", 0.25], ["1"]),
        "scales": ([["1/2"], "0.5,1.5"], [[3], "x"]),
        "window": ([1, 20], []),
        "seeds": ([1, 2], []),
        "slope_threshold": (["0.01", 1e-3], []),
        "restriction": (["full"], ["table8"]),
        "seed": (["p", 7], []),
    },
    "regions": {
        "n_users": ([1, 2, 3, 4], []),
        "iid_eps": (["1/2", "0", "2/5"], ["1"]),
        "eps_grid": ([["1/4"], "1/2,3/4", ["0", "1/10"]], [["1"]]),
        "rays": ([1, 2], []),
        "boundary": (["99/100", "1/2"], ["2"]),
        "check_cert": ([True, False], ["yes"]),
        "seed": (["r", 5], []),
    },
}
# Fields whose default sizes a long run are always drawn, so that every
# example runs in milliseconds.
SIZES = {"horizon", "window", "seeds", "rays"}


@st.composite
def documents(draw):
    """A command, a document with at most two wrong fields and the others
    absent or valid, and an output format."""
    command = draw(st.sampled_from(sorted(FIELDS)))
    fields = FIELDS[command]
    wrong = draw(st.sets(st.sampled_from(sorted(fields)), max_size=2))
    doc = {}
    for key, (good, bad) in fields.items():
        if key in wrong:
            doc[key] = draw(st.sampled_from(BAD + bad))
        elif key in SIZES or draw(st.booleans()):
            doc[key] = draw(st.sampled_from(good))
    return command, doc, draw(st.sampled_from(["csv", "json"]))


class TestMalformedDocuments:
    @settings(max_examples=300, deadline=None)
    @given(documents())
    def test_exit_code_never_a_traceback(self, drawn):
        command, doc, fmt = drawn
        with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(
            os.environ, {"BECSIM_THREADS": "1"}
        ):
            conf = pathlib.Path(tmp) / "conf.json"
            conf.write_text(json.dumps(doc))
            args = [command, "--config", str(conf), "--out", tmp, "--format", fmt]
            assert main(args) in (0, 1, 2)
