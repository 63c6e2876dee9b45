import dataclasses
import json
import os
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmhier import cli, discrete, numerics, sampling
from cmhier.cli import _write_report, _write_rows, main, run_scenario
from cmhier.errors import NumericsError, ParseError, ValidationError
from cmhier.scenario import KEYS, MAX_STEPS, Scenario, parse_scenario, scenario_from_dict
from cmhier.verify import CheckEntry, Collector, VerificationReport


def write_config(tmp_path, payload, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


MINIMAL_CONTINUOUS = {
    "kind": "continuous",
    "n": 2,
    "positions": [-2.0, 2.0],
    "momenta": [0.0, 0.0],
    "duration": 0.2,
}


class TestParseScenario:
    def test_defaults_filled(self, tmp_path):
        sc = parse_scenario(write_config(tmp_path, MINIMAL_CONTINUOUS))
        assert sc.dt == 1e-3
        assert sc.seed == 0
        assert sc.format == "csv"

    def test_unknown_key_named(self, tmp_path):
        payload = dict(MINIMAL_CONTINUOUS, foo=1)
        with pytest.raises(ValidationError, match="foo"):
            parse_scenario(write_config(tmp_path, payload))

    def test_length_mismatch(self, tmp_path):
        payload = dict(MINIMAL_CONTINUOUS, positions=[-2.0, 0.0, 2.0])
        with pytest.raises(ValidationError, match="positions"):
            parse_scenario(write_config(tmp_path, payload))

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            parse_scenario(tmp_path / "absent.json")

    def test_parse_error_has_location(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"kind": "continuous",\n  "n": }', encoding="utf-8")
        with pytest.raises(ParseError, match="line 2"):
            parse_scenario(path)

    def test_bad_kind(self):
        with pytest.raises(ValidationError, match="kind"):
            scenario_from_dict({"kind": "quantum", "n": 1})

    def test_min_gap_enforced(self):
        with pytest.raises(ValidationError, match="minimum gap"):
            scenario_from_dict(dict(MINIMAL_CONTINUOUS, positions=[0.0, 0.1], momenta=[0.0, 0.0]))

    @pytest.mark.parametrize("payload", [
        {"kind": "continuous", "n": 3, "positions": [0.0, 0.0, 1.0], "momenta": [0.0, 0.0, 0.0], "min_gap": 0},
        {"kind": "discrete", "n": 2, "seed_prev": [0.0, 0.0], "seed_cur": [0.3, 1.3], "min_gap": 0.0},
        dict(MINIMAL_CONTINUOUS, min_gap=-1.0),
    ])
    def test_nonpositive_min_gap_rejected(self, payload):
        # a zero gap would let coinciding positions through to the march or the lattice step
        with pytest.raises(ValidationError, match="^field 'min_gap' must be positive$"):
            scenario_from_dict(payload)

    def test_nonpositive_step_rejected(self):
        with pytest.raises(ValidationError, match="dt"):
            scenario_from_dict(dict(MINIMAL_CONTINUOUS, dt=0.0))

    @pytest.mark.parametrize("kind, field", [("discrete", "steps"), ("semidiscrete", "chain_edges")])
    def test_site_count_is_capped(self, kind, field):
        # validation only: neither scenario is run
        assert getattr(scenario_from_dict({"kind": kind, "n": 1, field: MAX_STEPS}), field) == MAX_STEPS
        with pytest.raises(ValidationError, match=f"^field '{field}' must be an integer between 1 and {MAX_STEPS}$"):
            scenario_from_dict({"kind": kind, "n": 1, field: MAX_STEPS + 1})

    @pytest.mark.parametrize("n", [1, 2, 4, 50, 1024])
    def test_verify_all_refuses_a_size_it_does_not_run(self, n):
        assert scenario_from_dict({"kind": "verify-all", "n": 3}).n == 3
        with pytest.raises(ValidationError, match="^field 'n' must be 3 for kind 'verify-all'"):
            scenario_from_dict({"kind": "verify-all", "n": n})


class TestRunScenario:
    def test_continuous_csv_columns(self, tmp_path):
        sc = scenario_from_dict(dict(MINIMAL_CONTINUOUS, out_dir=str(tmp_path / "out")))
        paths, report = run_scenario(sc)
        csv_path = next(p for p in paths if p.suffix == ".csv")
        header = csv_path.read_text().splitlines()[0].split(",")
        assert header == ["s", "t2", "t3", "x1", "x2", "p1", "p2", "I1", "I2", "I3"]
        assert report.all_passed

    def test_discrete_uniform_orbit(self, tmp_path):
        sc = scenario_from_dict(
            {
                "kind": "discrete",
                "n": 1,
                "seed_prev": [0.0],
                "seed_cur": [1.0],
                "steps": 10,
                "out_dir": str(tmp_path / "out"),
            }
        )
        paths, report = run_scenario(sc)
        csv_path = next(p for p in paths if p.name == "orbit.csv")
        rows = csv_path.read_text().splitlines()[1:]
        xs = [float(r.split(",")[1]) for r in rows]
        assert np.allclose(xs, np.arange(11.0), atol=1e-9)
        assert report.all_passed

    @pytest.mark.parametrize("entries, blocks", [(None, [11]), (20, [2, 2, 2, 2, 2, 1])])
    def test_discrete_el_residual_in_row_blocks_equals_the_per_triple_reference(self, tmp_path, monkeypatch,
                                                                                   entries, blocks):
        # 20 entries: two triples of 3 x 3 entries per block, the last block short
        sc = scenario_from_dict({"kind": "discrete", "n": 3, "seed": 7, "steps": 12, "out_dir": str(tmp_path)})
        orbit = cli._lattice_sites(sc, sc.steps + 1)
        reference = max(float(np.max(np.abs(discrete.discrete_el_residual(*triple))))
                        for triple in zip(orbit, orbit[1:], orbit[2:]))
        if entries is not None:
            monkeypatch.setattr(numerics, "STACK_ENTRIES", entries)
        evaluate, called = discrete.discrete_el_residual, []
        monkeypatch.setattr(discrete, "discrete_el_residual",
                            lambda *sites: called.append(len(sites[0])) or evaluate(*sites))
        entry = next(e for e in run_scenario(sc)[1].entries if e.name == "discrete-el-residual")
        assert entry.residual == reference and called == blocks

    def test_csv_round_trip_full_precision(self, tmp_path):
        sc = scenario_from_dict(
            dict(MINIMAL_CONTINUOUS, positions=[-1.9, 2.3], momenta=[0.371, -0.423],
                 out_dir=str(tmp_path / "out"))
        )
        paths, _ = run_scenario(sc)
        csv_path = next(p for p in paths if p.suffix == ".csv")
        lines = csv_path.read_text().splitlines()
        header = lines[0].split(",")
        last = dict(zip(header, (float(v) for v in lines[-1].split(","))))

        from cmhier.flows import PathSpec, evolve_path
        from cmhier.hierarchy import PhaseState

        traj = evolve_path(
            PhaseState([-1.9, 2.3], [0.371, -0.423]),
            PathSpec(np.array([1.0, 0.0]), 0.2, steps=200),
        )
        end = traj.samples[-1]
        assert last["x1"] == end.x[0] and last["x2"] == end.x[1]
        assert last["p1"] == end.p[0] and last["p2"] == end.p[1]

    def test_zero_duration_writes_the_start_only(self, tmp_path):
        sc = scenario_from_dict(dict(MINIMAL_CONTINUOUS, duration=0, out_dir=str(tmp_path / "out")))
        paths, report = run_scenario(sc)
        lines = next(p for p in paths if p.suffix == ".csv").read_text().splitlines()
        assert len(lines) == 2 and lines[1].startswith("0.0,0.0,0.0,-2.0,2.0,")
        assert [e.name for e in report.entries] == ["invariant-drift", "energy-drift"] and report.all_passed

    def test_negative_direction_starts_at_positive_zero(self, tmp_path):
        # t = direction * s would give -0.0 at s = 0; the start row is the origin
        sc = scenario_from_dict(
            {"kind": "continuous", "seed": 4, "n": 3, "direction": [-0.5, -1.0], "duration": 0.2,
             "out_dir": str(tmp_path / "out")}
        )
        paths, report = run_scenario(sc)
        lines = next(p for p in paths if p.suffix == ".csv").read_text().splitlines()
        assert lines[1].startswith("0.0,0.0,0.0,") and lines[2].startswith("0.001,-0.0005,-0.001,")
        assert len(lines) == 202 and report.all_passed

    def test_json_lines_format(self, tmp_path):
        sc = scenario_from_dict(
            dict(MINIMAL_CONTINUOUS, format="json-lines", out_dir=str(tmp_path / "out"))
        )
        paths, _ = run_scenario(sc)
        jsonl = next(p for p in paths if p.suffix == ".jsonl")
        first = json.loads(jsonl.read_text().splitlines()[0])
        assert first["s"] == 0.0
        assert "x1" in first and "I3" in first

    def test_deterministic_outputs(self, tmp_path):
        outputs = []
        for run in ("a", "b"):
            sc = scenario_from_dict(
                {"kind": "verify-all", "n": 3, "seed": 7, "out_dir": str(tmp_path / run)}
            )
            paths, _ = run_scenario(sc)
            outputs.append((tmp_path / run / "report.json").read_bytes())
        assert outputs[0] == outputs[1]

    def test_report_summary_consistent(self, tmp_path):
        sc = scenario_from_dict(
            {"kind": "verify-all", "n": 3, "out_dir": str(tmp_path / "out")}
        )
        _, report = run_scenario(sc)
        payload = json.loads((tmp_path / "out" / "report.json").read_text())
        assert payload["summary"]["total"] == len(payload["entries"])
        assert payload["summary"]["passed"] == sum(e["passed"] for e in payload["entries"])
        for entry in payload["entries"]:
            if entry["tolerance"] is not None:
                assert entry["passed"] == (entry["residual"] <= entry["tolerance"])
            else:
                assert entry["passed"] and entry["metadata"].get("diagnostic")

    def test_closure_entries_expose_both_conventions(self, tmp_path):
        sc = scenario_from_dict(
            {"kind": "verify-all", "n": 3, "out_dir": str(tmp_path / "out")}
        )
        _, report = run_scenario(sc)
        by_name = {e.name: e for e in report.entries}
        closure = by_name["discrete-closure"]
        assert "value_printed" in closure.metadata and "value_negated" in closure.metadata
        semi = by_name["semi-closure"]
        assert "printed" in semi.metadata and "negated" in semi.metadata


class TestMain:
    def test_run_exit_zero(self, tmp_path, capsys):
        path = write_config(tmp_path, dict(MINIMAL_CONTINUOUS, out_dir=str(tmp_path / "out")))
        assert main(["run", str(path)]) == 0
        assert "PASS" in capsys.readouterr().out

    @pytest.mark.parametrize("n, seed", [(2, 0), (3, 7)])
    def test_seeded_discrete_run_passes_its_gates(self, tmp_path, n, seed):
        # these orbits hold the 1e-10 invariant gate at the default Newton tolerance 1e-13, not at 1e-12
        path = write_config(tmp_path, {"kind": "discrete", "n": n, "seed": seed, "out_dir": str(tmp_path / "out")})
        assert main(["run", str(path)]) == 0

    def test_check_failure_exit_one(self, tmp_path, capsys):
        path = write_config(tmp_path, dict(MINIMAL_CONTINUOUS, out_dir=str(tmp_path / "out")))
        assert main(["run", str(path), "--tolerance-scale", "0"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_numerical_failure_exit_two(self, tmp_path, capsys):
        payload = {
            "kind": "continuous",
            "n": 2,
            "positions": [-0.4, 0.4],
            "momenta": [6.0, -6.0],
            "duration": 1.0,
            "min_gap": 0.5,
            "out_dir": str(tmp_path / "out"),
        }
        assert main(["run", str(write_config(tmp_path, payload))]) == 2
        assert "numerical failure" in capsys.readouterr().err

    def test_overflow_is_a_non_finite_step_without_warnings(self, tmp_path, capsys):
        payload = dict(MINIMAL_CONTINUOUS, direction=[1e308, 1e308], duration=0.01)
        payload["out_dir"] = str(tmp_path / "out")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", str(write_config(tmp_path, payload))]) == 2
        err = capsys.readouterr().err
        assert err == "numerical failure: CollisionSingularity: non-finite state at s=0.001\n"

    def test_overflowing_field_is_named(self, tmp_path, capsys):
        # the t2 and t3 fields at the start already overflow: -4 * 1e308 * sum 1/(x_i - x_j)^2 at x = 0
        payload = dict(MINIMAL_CONTINUOUS, n=3, positions=[-2.0, 0.0, 2.0], momenta=[0.0, 0.0, 0.0],
                       direction=[1e308, 1e308], duration=0.01, out_dir=str(tmp_path / "out"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", str(write_config(tmp_path, payload))]) == 2
        err = capsys.readouterr().err
        assert err == "numerical failure: NumericsError: Hamilton field overflows on the step to s=0.001\n"
        assert list((tmp_path / "out").iterdir()) == []

    def test_report_writer_refuses_non_finite_values(self, tmp_path):
        sc = scenario_from_dict({"kind": "verify-all", "n": 3, "out_dir": str(tmp_path)})
        report = VerificationReport((CheckEntry("c", 0.0, None, True, {"ratio": float("nan")}),))
        with pytest.raises(NumericsError, match="^cannot write a non-finite value as strict JSON"):
            _write_report(tmp_path / "report.json", report, sc)
        with pytest.raises(NumericsError, match="^cannot write a non-finite value as strict JSON"):
            _write_rows(tmp_path / "rows", ["a", "b"], [[1.0, float("inf")]], "json-lines")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("rows", [
        [[-0.0, 5e-324, 1e22], [0.1 + 0.2, 1 / 3, float("inf")]],
        np.array([[-0.0, 5e-324, 1e22], [0.1 + 0.2, 1 / 3, np.inf]]),
        [[np.float64(-0.0), np.float64(5e-324), np.float64(1e22)],
         [np.float64(0.1) + np.float64(0.2), np.float64(1) / 3, np.float64(np.inf)]],
    ])
    def test_csv_cells_are_the_float_repr(self, tmp_path, rows):
        path = _write_rows(tmp_path / "rows", ["a", "b", "c"], rows, "csv")
        expected = ["a,b,c"] + [",".join(repr(float(v)) for v in row) for row in rows]
        assert path.read_text(encoding="utf-8") == "\n".join(expected) + "\n"
        assert expected[1:] == ["-0.0,5e-324,1e+22", "0.30000000000000004,0.3333333333333333,inf"]

    @pytest.mark.parametrize("fmt, name, lines", [("csv", "orbit.csv", 22), ("json-lines", "orbit.jsonl", 21)])
    def test_discrete_run_writes_plain_floats(self, tmp_path, fmt, name, lines):
        # the orbit's sites are numpy arrays; numpy 2 writes a bare np.float64 as np.float64(...)
        path = write_config(tmp_path, {"kind": "discrete", "n": 2, "steps": 20, "format": fmt,
                                       "out_dir": str(tmp_path / "out")})
        assert main(["run", str(path)]) == 0
        text = (tmp_path / "out" / name).read_text(encoding="utf-8")
        assert "np.float64(" not in text and len(text.splitlines()) == lines  # sites 0-20, after a csv header

    def test_non_finite_report_value_exits_two(self, tmp_path, capsys, monkeypatch):
        report = VerificationReport((CheckEntry("c", 0.0, None, True, {"ratio": float("nan")}),))
        monkeypatch.setitem(cli._RUNS, "verify-all", lambda sc, out_dir: ([], report))
        assert main(["demo", "verify", "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: NumericsError: cannot write a non-finite value as strict JSON")
        assert list(tmp_path.iterdir()) == []

    def test_non_finite_residual_is_a_numerical_failure(self, tmp_path, capsys):
        # p^3 overflows, so both invariant series and the path energy are inf - inf
        payload = dict(MINIMAL_CONTINUOUS, positions=[0.0, 10.0], momenta=[1e110, 1e110], duration=0)
        payload["out_dir"] = str(tmp_path / "out")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", str(write_config(tmp_path, payload))]) == 2
        err = capsys.readouterr().err
        assert err == "numerical failure: NumericsError: invariant-drift: non-finite residual nan\n"
        assert list((tmp_path / "out").iterdir()) == []

    def test_collector_refuses_a_non_finite_floor_or_diagnostic(self):
        # max(0.0, nan) is 0.0, so a NaN negative control would pass and print as bare NaN
        col = Collector(1.0)
        with pytest.raises(NumericsError, match="^neg: non-finite observed value nan$"):
            col.floor("neg", float("nan"), 1e-2)
        with pytest.raises(NumericsError, match="^d: non-finite value nan$"):
            col.diagnostic("d", float("nan"))
        assert col.entries == []

    @pytest.mark.parametrize(
        "field, payload",
        [
            ("dt", dict(MINIMAL_CONTINUOUS, duration=1e300, dt=1e-300)),
            ("tau_step", {"kind": "semidiscrete", "n": 2, "seed_prev": [-2.0, 2.0], "seed_cur": [-1.7, 2.36],
                          "tau_duration": 1e300, "tau_step": 1e-300}),
            ("steps", {"kind": "discrete", "n": 1, "seed_prev": [0.0], "seed_cur": [1.0], "steps": MAX_STEPS + 1}),
            ("chain_edges", {"kind": "semidiscrete", "n": 2, "seed_prev": [-2.0, 2.0], "seed_cur": [-1.7, 2.36],
                             "chain_edges": MAX_STEPS + 1}),
        ],
    )
    def test_step_count_above_the_cap_is_config_error(self, tmp_path, capsys, field, payload):
        # round(1e300 / 1e-300) overflows to inf; every count is refused before anything runs
        out = tmp_path / "out"
        assert main(["run", str(write_config(tmp_path, dict(payload, out_dir=str(out))))]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: field ") and f"'{field}'" in err and "Traceback" not in err
        assert not out.exists()

    def test_config_error_exit_two(self, tmp_path, capsys):
        path = write_config(tmp_path, dict(MINIMAL_CONTINUOUS, typo=1))
        assert main(["run", str(path)]) == 2
        assert "typo" in capsys.readouterr().err

    def test_gamma_is_not_a_scenario_key(self, tmp_path, capsys):
        # the Lax coefficient is the constant hierarchy.GAMMA
        path = write_config(tmp_path, dict(MINIMAL_CONTINUOUS, gamma=-2.0, out_dir=str(tmp_path / "out")))
        assert main(["run", str(path)]) == 2
        assert "error: unknown key 'gamma'" in capsys.readouterr().err
        assert not (tmp_path / "out" / "report.json").exists()

    @pytest.mark.parametrize("key, kind", [("p1", "discrete"), ("p2", "semidiscrete")])
    def test_lattice_parameter_is_not_a_scenario_key(self, tmp_path, capsys, key, kind):
        # p1 and p2 cancel from the equation of motion, so no orbit or chain reads them
        payload = {"kind": kind, "n": 1, key: 1.5, "out_dir": str(tmp_path / "out")}
        assert main(["run", str(write_config(tmp_path, payload))]) == 2
        assert capsys.readouterr().err == f"error: unknown key '{key}'\n"
        assert not (tmp_path / "out" / "report.json").exists()

    @pytest.mark.parametrize("payload, field", [
        ({"kind": "semidiscrete", "n": 2, "steps": 500, "duration": 9, "direction": [0, 1]}, "direction"),
        ({"kind": "semidiscrete", "n": 2, "steps": 500}, "steps"),
        ({"kind": "verify-all", "n": 3, "dt": 0.5, "chain_edges": 7, "format": "json-lines", "min_gap": 3.0},
         "chain_edges"),
        ({"kind": "verify-all", "n": 3, "min_gap": 3.0}, "min_gap"),
        ({"kind": "discrete", "n": 1, "positions": [0.0], "momenta": [1.0]}, "momenta"),
        ({"kind": "continuous", "n": 1, "seed_prev": [0.0]}, "seed_prev"),
    ])
    def test_key_of_another_kind_is_config_error(self, tmp_path, capsys, payload, field):
        # a run ignores the keys its kind does not read; the first of them, in sorted order, is named
        out = tmp_path / "out"
        assert main(["run", str(write_config(tmp_path, dict(payload, out_dir=str(out))))]) == 2
        assert capsys.readouterr().err == f"error: field '{field}' is not read by kind '{payload['kind']}'\n"
        assert not out.exists()

    def test_override_of_a_key_the_kind_does_not_read_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        path = write_config(tmp_path, {"kind": "verify-all", "n": 3})
        assert main(["verify", str(path), "--format", "csv", "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == "error: field 'format' is not read by kind 'verify-all'\n"
        assert not out.exists()

    @pytest.mark.parametrize("demo", ["continuous", "discrete", "semidiscrete"])
    def test_a_report_that_cannot_be_written_leaves_no_trajectory(self, tmp_path, capsys, demo):
        out = tmp_path / "out"
        (out / "report.json").mkdir(parents=True)
        assert main(["demo", demo, "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        # the trajectory written before the report is removed again
        assert [path.name for path in out.iterdir()] == ["report.json"] and (out / "report.json").is_dir()

    @pytest.mark.parametrize("demo, gate, value, check", [
        ("discrete", "orbit_invariant_drift", float("nan"), "discrete-invariant-drift"),
        ("semidiscrete", "chain_residuals", (float("nan"), None, None), "semi-velocity-consistency"),
    ])
    def test_a_gate_that_aborts_leaves_no_trajectory(self, tmp_path, capsys, monkeypatch, demo, gate, value, check):
        # each run gates before it writes, as the continuous run does
        monkeypatch.setattr(cli, gate, lambda *args: value)
        assert main(["demo", demo, "--out-dir", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"numerical failure: NumericsError: {check}: non-finite residual nan\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "field, payload",
        [
            ("tolerance_scale", {"kind": "verify-all", "n": 3, "tolerance_scale": float("nan")}),
            ("newton_tolerance", {"kind": "discrete", "n": 1, "newton_tolerance": float("inf")}),
            ("tau_duration", {"kind": "semidiscrete", "n": 1, "tau_duration": float("nan")}),
            ("min_gap", dict(MINIMAL_CONTINUOUS, min_gap=float("-inf"))),
            ("dt", dict(MINIMAL_CONTINUOUS, dt=float("inf"))),
            ("positions", dict(MINIMAL_CONTINUOUS, positions=[0.0, float("inf")])),
            ("direction", dict(MINIMAL_CONTINUOUS, direction=[float("nan"), 1.0])),
        ],
    )
    def test_non_finite_number_is_config_error(self, tmp_path, capsys, field, payload):
        path = write_config(tmp_path, dict(payload, out_dir=str(tmp_path / "out")))
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"'{field}'" in err
        assert not (tmp_path / "out" / "report.json").exists()

    @pytest.mark.parametrize(
        "field, flags",
        [
            ("tolerance_scale", ["--tolerance-scale", "nan"]),
            ("tolerance_scale", ["--tolerance-scale", "-1"]),
            ("seed", ["--seed", "-1"]),
        ],
    )
    def test_override_is_validated_like_its_key(self, tmp_path, capsys, field, flags):
        out = tmp_path / "out"
        assert main(["demo", "continuous", "--out-dir", str(out), *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"'{field}'" in err
        assert not (out / "report.json").exists()

    def test_negative_seed_is_config_error(self, tmp_path, capsys):
        payload = {"kind": "continuous", "n": 2, "seed": -1, "out_dir": str(tmp_path / "out")}
        assert main(["run", str(write_config(tmp_path, payload))]) == 2
        assert capsys.readouterr().err == "error: field 'seed' must be a nonnegative integer\n"
        assert not (tmp_path / "out" / "report.json").exists()

    def test_oversized_n_is_rejected_before_drawing(self, tmp_path, capsys, monkeypatch):
        draws = []
        monkeypatch.setattr("cmhier.cli._seeded", lambda *args, **kwargs: draws.append(args))
        payload = {"kind": "continuous", "n": 1025, "out_dir": str(tmp_path / "out")}
        assert main(["run", str(write_config(tmp_path, payload))]) == 2
        assert capsys.readouterr().err == "error: field 'n' must be an integer between 1 and 1024\n"
        assert draws == [] and not (tmp_path / "out" / "report.json").exists()

    def test_discrete_abort_names_its_site(self, tmp_path, capsys):
        # at Newton tolerance 1e-12 the solve for site 64 of this seeded orbit hits a singular Jacobian, where the
        # exact orbit is complex
        payload = {"kind": "discrete", "n": 3, "steps": 200, "newton_tolerance": 1e-12, "out_dir": str(tmp_path / "out")}
        assert main(["run", str(write_config(tmp_path, payload))]) == 2
        assert capsys.readouterr().err == ("numerical failure: CollisionSingularity: at site 64: the exact orbit leaves "
                                           "the real line: complex pair in the lattice spectrum\n")

    def test_discrete_step_that_reorders_particles_aborts(self, tmp_path, capsys):
        # the exact orbit of this seed edge collides between sites 39 and 41
        payload = {"kind": "discrete", "n": 3, "steps": 40, "out_dir": str(tmp_path / "out"),
                   "seed_prev": [0.08217701239287256, 2.8618720282583223, 5.724584114361717],
                   "seed_cur": [0.3832788547614412, 3.216090044205007, 6.085434486180231]}
        assert main(["run", str(write_config(tmp_path, payload))]) == 2
        err = capsys.readouterr().err
        assert err == "numerical failure: CollisionSingularity: at site 40: particle order changed across the step\n"
        assert not (tmp_path / "out" / "report.json").exists()

    def test_seed_pair_sharing_a_coordinate_aborts_without_warnings(self, tmp_path, capsys):
        payload = {"kind": "discrete", "n": 2, "seed_prev": [0, 3], "seed_cur": [0, 3.5], "steps": 3,
                   "out_dir": str(tmp_path / "out")}
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["run", str(write_config(tmp_path, payload))]) == 2
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: CollisionSingularity: at site 2: ")
        assert "RuntimeWarning" not in err and not [w for w in caught if w.category is RuntimeWarning]
        assert not (tmp_path / "out" / "report.json").exists()

    @pytest.mark.parametrize("payload, site, err", [
        ({"kind": "discrete", "n": 2, "seed_prev": [0, 3], "seed_cur": [0, 3.5], "steps": 3}, 2,
         "CollisionSingularity: at site 2: cross gap 0.000e+00 below 1.0e-12"),
        ({"kind": "discrete", "n": 3, "steps": 40,
          "seed_prev": [0.08217701239287256, 2.8618720282583223, 5.724584114361717],
          "seed_cur": [0.3832788547614412, 3.216090044205007, 6.085434486180231]}, 40,
         "CollisionSingularity: at site 40: particle order changed across the step"),
        ({"kind": "discrete", "n": 1, "seed_prev": [0.0], "seed_cur": [0.3], "steps": 5000}, 854,
         "NonConvergence: at site 854: system 0: residual 3.157e-13 above tolerance 1.0e-13 after 50 iterations"),
        # the solve for site 63 stalls, and the exact orbit is complex at site 64
        ({"kind": "discrete", "n": 3, "seed": 0, "steps": 100}, 63,
         "CollisionSingularity: at site 64: the exact orbit leaves the real line: complex pair in the lattice spectrum"),
    ])
    def test_discrete_aborts_alike_on_both_kernels(self, tmp_path, capsys, monkeypatch, payload, site, err):
        # the float orbit takes every step before the failing one and hands that one to discrete_step
        numpy_steps = []
        real = discrete.discrete_step
        monkeypatch.setattr(discrete, "discrete_step", lambda *args: numpy_steps.append(1) or real(*args))
        for float_size in (discrete.FLOAT_ORBIT_SIZE, 0):
            monkeypatch.setattr(discrete, "FLOAT_ORBIT_SIZE", float_size)
            numpy_steps.clear()
            assert main(["run", str(write_config(tmp_path, {**payload, "out_dir": str(tmp_path / "out")}))]) == 2
            assert capsys.readouterr().err == f"numerical failure: {err}\n"
            assert len(numpy_steps) == (1 if float_size else site - 1)
            assert not (tmp_path / "out" / "report.json").exists()

    @pytest.mark.parametrize(
        "payload",
        [{"kind": "continuous", "n": 13}, {"kind": "discrete", "n": 4}, {"kind": "semidiscrete", "n": 4}],
    )
    def test_sampler_failure_is_config_error(self, tmp_path, capsys, monkeypatch, payload):
        # every n draws now; the sampler's one failure left is a constructed draw that rounding leaves short
        def refused(*args):
            raise RuntimeError("rejection sampling failed; loosen min_gap or widen span")

        monkeypatch.setattr(sampling, "_constructed_positions", refused)
        path = write_config(tmp_path, dict(payload, out_dir=str(tmp_path / "out")))
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == (f"error: field 'n': cannot draw a seeded initial state for n={payload['n']}: "
                       "rejection sampling failed; loosen min_gap or widen span\n")

    @pytest.mark.parametrize("payload, code", [
        ({"kind": "continuous", "n": 13, "duration": 0.002}, (0, 1)),
        ({"kind": "discrete", "n": 4, "steps": 5}, (0,)),
        ({"kind": "discrete", "n": 8, "steps": 5}, (0,)),
        ({"kind": "semidiscrete", "n": 4}, (0,)),
    ])
    def test_seeded_runs_whose_fixed_span_is_too_small_draw(self, tmp_path, capsys, payload, code):
        # [-3, 3] cannot hold 13 gaps of 0.5, nor [-6, 6] four of 3.5: the draw widens its span and the run runs
        path = write_config(tmp_path, dict(payload, out_dir=str(tmp_path / "out")))
        assert main(["run", str(path)]) in code and "error" not in capsys.readouterr().err

    @pytest.mark.parametrize("n, min_gap", [(25, 0.1), (11, 0.5)])
    def test_a_state_rejection_cannot_draw_is_constructed(self, tmp_path, capsys, n, min_gap):
        # rejection sampling fails on these, and the constructed state runs; the states crowd their span and
        # the particles attract, so at the default duration both meet a close approach (n = 25 at s=0.004)
        path = write_config(tmp_path, {"kind": "continuous", "n": n, "min_gap": min_gap, "duration": 0.002,
                                       "out_dir": str(tmp_path / "out")})
        assert main(["run", str(path)]) in (0, 1) and "error" not in capsys.readouterr().err
        start = np.loadtxt(tmp_path / "out" / "trajectory.csv", delimiter=",", skiprows=1, max_rows=1)
        assert np.diff(start[3:3 + n]).min() >= min_gap and (tmp_path / "out" / "report.json").exists()

    @pytest.mark.parametrize("out_dir", [5, None])
    def test_out_dir_that_is_not_a_string_is_config_error(self, tmp_path, capsys, out_dir):
        path = write_config(tmp_path, {"kind": "verify-all", "n": 3, "out_dir": out_dir})
        assert main(["run", str(path)]) == 2
        assert capsys.readouterr().err == "error: field 'out_dir' must be a string\n"

    @pytest.mark.parametrize("kind, given", [("discrete", "seed_prev"), ("semidiscrete", "seed_cur")])
    def test_lone_seed_site_is_config_error(self, tmp_path, capsys, kind, given):
        out = tmp_path / "out"
        payload = {"kind": kind, "n": 2, given: [0, 3], "out_dir": str(out)}
        assert main(["run", str(write_config(tmp_path, payload))]) == 2
        assert capsys.readouterr().err == "error: fields 'seed_prev' and 'seed_cur' must be given together\n"
        assert not out.exists()

    @pytest.mark.parametrize("case", ["config-is-a-directory", "config-is-not-utf8", "config-nested-3000-deep",
                                      "out-dir-is-a-file", "out-dir-under-a-file", "report-is-a-directory",
                                      "out-dir-holds-nul"])
    def test_file_or_format_error_is_config_error(self, tmp_path, capsys, case):
        config, out = tmp_path / "scenario.json", tmp_path / "out"
        payload = {"kind": "discrete", "n": 1, "seed_prev": [0.0], "seed_cur": [1.0]}
        config.write_text(json.dumps(payload), encoding="utf-8")
        if case == "config-is-a-directory":
            config.unlink()
            config.mkdir()
        elif case == "config-is-not-utf8":
            config.write_bytes(b'{"kind": "discrete", "n": 1, "out_dir": "\xff"}')
        elif case == "config-nested-3000-deep":
            config.write_text('{"kind": "discrete", "n": 1, "steps": ' + "[" * 3000 + "]" * 3000 + "}", encoding="utf-8")
        elif case == "out-dir-is-a-file":
            out.write_text("", encoding="utf-8")
        elif case == "out-dir-under-a-file":
            out.write_text("", encoding="utf-8")
            out = out / "sub"
        elif case == "report-is-a-directory":
            (out / "report.json").mkdir(parents=True)
        else:
            config.write_text(json.dumps(dict(payload, out_dir=str(out) + "\0")), encoding="utf-8")
        assert main(["run", str(config), *(["--out-dir", str(out)] if case != "out-dir-holds-nul" else [])]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
        assert case != "out-dir-holds-nul" or err.startswith("error: field 'out_dir'")
        assert not [path for path in tmp_path.rglob("report.json") if path.is_file()]

    def test_missing_file_exit_two(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "nope.json")]) == 2
        capsys.readouterr()

    def test_verify_all_of_another_size_is_config_error(self, tmp_path, capsys):
        path = write_config(tmp_path, {"kind": "verify-all", "n": 50, "out_dir": str(tmp_path / "out")})
        assert main(["verify", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: field 'n' must be 3 for kind 'verify-all'")
        assert not (tmp_path / "out").exists()

    def test_verify_requires_verify_kind(self, tmp_path, capsys):
        path = write_config(tmp_path, dict(MINIMAL_CONTINUOUS))
        assert main(["verify", str(path)]) == 2
        capsys.readouterr()

    def test_demo_runs(self, tmp_path, capsys):
        assert main(["demo", "discrete", "--out-dir", str(tmp_path / "demo")]) == 0
        capsys.readouterr()

    def test_zero_tolerance_fails_nontrivial_checks(self, tmp_path):
        path = write_config(tmp_path, {"kind": "verify-all", "n": 3, "tolerance_scale": 0.0})
        assert main(["verify", str(path), "--out-dir", str(tmp_path / "out")]) == 1
        payload = json.loads((tmp_path / "out" / "report.json").read_text())
        for entry in payload["entries"]:
            if entry["tolerance"] is not None and entry["residual"] > 0:
                assert not entry["passed"]

    def test_seed_override_changes_report(self, tmp_path):
        path = write_config(tmp_path, {"kind": "verify-all", "n": 3})
        main(["verify", str(path), "--out-dir", str(tmp_path / "s0"), "--seed", "0"])
        main(["verify", str(path), "--out-dir", str(tmp_path / "s1"), "--seed", "1"])
        a = json.loads((tmp_path / "s0" / "report.json").read_text())
        b = json.loads((tmp_path / "s1" / "report.json").read_text())
        assert a != b
        assert a["summary"]["failed"] == 0 and b["summary"]["failed"] == 0


# every scenario key -> (valid values, out-of-range values), the lists of n entries as functions of n;
# the valid values keep runs small: at most 100 continuous or tau steps and 50 discrete steps, and
# one valid kind in nineteen is the slower verify-all
FUZZ_KEYS = {
    "kind": (["continuous", "discrete", "semidiscrete"] * 6 + ["verify-all"], ["quantum"]),
    "n": ([1, 2, 3], [0, 1025]),
    "seed": ([0, 1, 5], [-1]),
    "min_gap": ([0.5, 0.1], [100.0, -1.0, 0.0]),
    "out_dir": (["o", "o/p"], []),
    "format": (["csv", "json-lines"], ["xml"]),
    "tolerance_scale": ([1.0, 0.0, 10.0], [-1.0, 1e308]),
    "positions": ([lambda n: [-2.0, 0.0, 2.0][:n]], [lambda n: [0.0] * (n + 1)]),
    "momenta": ([lambda n: [0.1, -0.2, 0.3][:n]], [lambda n: [0.0] * (n + 1)]),
    "duration": ([0.0, 0.05, 0.1], [-1.0]),
    "dt": ([1e-3, 1e-2], [-0.1, 1e-300]),
    "direction": ([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], [[0.0, 0.0], [1.0]]),
    "seed_prev": ([lambda n: [0.0, 3.0, 6.0][:n]], [lambda n: [0.0] * (n + 1)]),
    "seed_cur": ([lambda n: [0.3, 3.3, 6.3][:n]], [lambda n: [0.0] * (n + 1)]),
    "steps": ([1, 5, 50], [0, -3]),
    "newton_tolerance": ([1e-12, 1e-10], [0.0, -1.0]),
    "chain_edges": ([1, 2, 3], [0]),
    "tau_duration": ([0.01, 0.05], [0.0, -0.1]),
    "tau_step": ([1e-3, 5e-3], [-1e-3, 1e-300]),
}
WRONG_TYPES = [0, None, "x", [1.0], True]
OVERRIDES = [[], ["--out-dir", "given"], ["--seed", "2"], ["--tolerance-scale", "0"], ["--format", "json-lines"]]


def _strict_constant(name):
    raise ValueError(f"report.json holds {name}")


@st.composite
def fuzzed_scenarios(draw):
    """A valid scenario object of one kind, each key of that kind absent or valid; for every key of the kind
    an out-of-range or wrongly typed value; and a key of another kind with a valid value. The continuous
    span is always given, so no run exceeds 100 steps."""
    kind, n = draw(st.sampled_from(FUZZ_KEYS["kind"][0])), draw(st.sampled_from(FUZZ_KEYS["n"][0]))
    base, bad = {"kind": kind, "n": n}, {}

    def pick(values):
        value = draw(st.sampled_from(values))
        return value(n) if callable(value) else value

    for key in KEYS[kind]:
        valid, out_of_range = FUZZ_KEYS[key]
        if key == "duration" or (key not in base and draw(st.booleans())):
            base[key] = pick(valid)
        bad[key] = pick(out_of_range + WRONG_TYPES)
    foreign = draw(st.sampled_from(sorted(set(FUZZ_KEYS) - set(KEYS[kind]))))
    return base, bad, {foreign: pick(FUZZ_KEYS[foreign][0])}


def test_fuzz_table_covers_every_scenario_key():
    assert set(FUZZ_KEYS) == {f.name for f in dataclasses.fields(Scenario)}


def test_readme_field_list_names_every_scenario_key():
    # the backticked identifiers of README's "Fields by kind" list, the paragraph after its heading paragraph:
    # one item per kind, which names exactly the keys KEYS gives it, with the shared item's keys when it
    # says "the shared fields", and one shared item, which names the keys every kind reads
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    field_list = readme.split("Fields by kind", 1)[1].split("\n\n")[1]
    fields = {f.name for f in dataclasses.fields(Scenario)}
    assert set(re.findall(r"`([A-Za-z_]\w*)`", field_list)) == fields
    assert set().union(*KEYS.values()) == fields
    items = dict(re.findall(r"^- ([\w-]+)[^—\n]* — (.*?)(?=^- |\Z)", field_list, flags=re.M | re.S))
    named = {label: set(re.findall(r"`([A-Za-z_]\w*)`", text)) for label, text in items.items()}
    shared = named.pop("shared")
    assert shared == set.intersection(*map(set, KEYS.values()))
    assert set(named) == set(KEYS)
    for kind, keys in KEYS.items():
        inherited = shared if items[kind].startswith("the shared fields") else set()
        assert named[kind] | inherited == set(keys), kind


@settings(max_examples=20, deadline=None)
@given(fuzzed_scenarios(), st.sampled_from(OVERRIDES))
def test_cli_contract_holds_on_fuzzed_scenarios(scenario, flags):
    # main() exits 0, 1 or 2 and raises nothing, on the valid scenario and on each variant with
    # one key out of range or wrongly typed; a report it writes is strict JSON. The variant with
    # a key of another kind exits 2
    base, bad, foreign = scenario
    start = os.getcwd()
    for raw in [base, *(dict(base, **{key: value}) for key, value in bad.items()), dict(base, **foreign)]:
        with tempfile.TemporaryDirectory() as work:
            os.chdir(work)
            try:
                Path("scenario.json").write_text(json.dumps(raw), encoding="utf-8")
                code = main(["run", "scenario.json", *flags])
                assert code in (0, 1, 2) and (code == 2 or set(raw) <= set(KEYS[base["kind"]]))
                if code in (0, 1):
                    out = "given" if "--out-dir" in flags else raw.get("out_dir", "out")
                    json.loads(Path(out, "report.json").read_text(), parse_constant=_strict_constant)
            finally:
                os.chdir(start)
