import json
import warnings

import numpy as np
import pytest

from cmhier.cli import main, run_scenario
from cmhier.errors import ParseError, ValidationError
from cmhier.scenario import parse_scenario, scenario_from_dict


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
        assert sc.gamma == -2.0
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

    def test_nonpositive_step_rejected(self):
        with pytest.raises(ValidationError, match="dt"):
            scenario_from_dict(dict(MINIMAL_CONTINUOUS, dt=0.0))


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
            PathSpec(np.array([1.0, 0.0]), 0.2, steps=1),
            dt_s=1e-3,
        )
        end = traj.final_state
        assert last["x1"] == end.x[0] and last["x2"] == end.x[1]
        assert last["p1"] == end.p[0] and last["p2"] == end.p[1]

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

    def test_config_error_exit_two(self, tmp_path, capsys):
        path = write_config(tmp_path, dict(MINIMAL_CONTINUOUS, typo=1))
        assert main(["run", str(path)]) == 2
        assert "typo" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, payload",
        [
            ("tolerance_scale", {"kind": "verify-all", "n": 3, "tolerance_scale": float("nan")}),
            ("gamma", dict(MINIMAL_CONTINUOUS, gamma=float("inf"))),
            ("p1", {"kind": "discrete", "n": 1, "p1": float("nan")}),
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
        # the Newton solve for site 64 of this seeded orbit hits a singular Jacobian
        payload = {"kind": "discrete", "n": 3, "steps": 200, "out_dir": str(tmp_path / "out")}
        assert main(["run", str(write_config(tmp_path, payload))]) == 2
        assert "numerical failure: SingularJacobian: at site 64: system 0:" in capsys.readouterr().err

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

    @pytest.mark.parametrize(
        "payload",
        [{"kind": "continuous", "n": 12}, {"kind": "discrete", "n": 4}, {"kind": "semidiscrete", "n": 4}],
    )
    def test_sampler_failure_is_config_error(self, tmp_path, capsys, payload):
        path = write_config(tmp_path, dict(payload, out_dir=str(tmp_path / "out")))
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: field 'n'") and f"n={payload['n']}" in err

    def test_missing_file_exit_two(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "nope.json")]) == 2
        capsys.readouterr()

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
