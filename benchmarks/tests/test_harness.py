"""Tests of the benchmark harness itself.

    python3 -m pytest benchmarks/tests
"""

import argparse
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import calibration  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

workloads.load_program()


def _input_bytes(workload, seed, tmp_path):
    ops = workload.make_pass(seed, 0) + workload.make_pass(seed, 1)
    return [op.label.encode() + workloads.write_inputs(op, tmp_path).read_bytes() for op in ops]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_byte_identical_inputs(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    first = _input_bytes(workload, 3, tmp_path)
    assert first == _input_bytes(workload, 3, tmp_path)
    assert first != _input_bytes(workload, 4, tmp_path)


def _wrapped_bindings():
    return [(m.__name__, attr) for m in tracing._program_modules()
            for attr, value in vars(m).items() if hasattr(value, "__traced__")]


def test_tracer_wraps_every_binding_and_restores_it():
    from cmhier import discrete, flows, hierarchy, numerics, semidiscrete

    shared = [(hierarchy, "min_gap"), (flows, "min_gap"), (discrete, "min_gap"),
              (numerics, "linear_solve"), (semidiscrete, "linear_solve"),
              (numerics, "newton_solve"), (discrete, "newton_solve")]
    originals = {(m, attr): getattr(m, attr) for m, attr in shared}
    tracer = tracing.Tracer()
    assert _wrapped_bindings() == []
    for _ in range(2):
        with tracer:
            for (m, attr), fn in originals.items():
                assert getattr(m, attr).__traced__ is fn
            flows.min_gap(np.array([0.0, 1.0]))
            hierarchy.min_gap(np.array([0.0, 2.0]))
        for module, attr, original, _ in tracer.bindings:
            assert getattr(module, attr) is original
        assert _wrapped_bindings() == []
    assert tracer.summary()["hierarchy.min_gap"]["calls"] == 4
    assert len(tracer.bindings) > len(shared)


def _args(workload, trace, seconds):
    return argparse.Namespace(workload=workload, seed=5, seconds=seconds, trace=trace, out=None)


@pytest.fixture(scope="module")
def lattice_runs():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(workloads, "LATTICE_BATCH", 1)  # short ops, so a 1 s run holds several
        return run.run(_args("lattice-sheet", 0, 1.0)), run.run(_args("lattice-sheet", 1, 1.0))


def test_untraced_run_has_a_reference_block_around_every_timing(lattice_runs):
    plain, _ = lattice_runs
    blocks = plain["reference_blocks_s"]
    assert len(blocks["ops"]) == plain["attempted"] + 1
    assert len(blocks["setup"]) == run.SETUP_PROBES + 1
    assert plain["wall"]["op_s_p50"] > 0


def test_scaled_divides_each_timing_by_the_blocks_around_it():
    ref = calibration.REFERENCE_S
    assert calibration.scaled([1.0, 3.0], [ref, ref, 3 * ref]) == pytest.approx([1.0, 1.5])
    with pytest.raises(ValueError):
        calibration.scaled([1.0, 3.0], [ref, ref])


def test_traced_run_restores_every_wrapped_binding(lattice_runs):
    _, traced = lattice_runs
    assert traced["metrics_all"]["discrete.corner_solve.calls"] > 0
    assert traced["untraced_targets"] == []
    assert _wrapped_bindings() == []


def test_traced_and_untraced_runs_execute_the_same_op_list(lattice_runs):
    plain_run, traced_run = lattice_runs

    def ops(records):
        return [(r["index"], r["label"], r["ratios"]) for r in records]

    traced, untraced_in_traced = ops(traced_run["ops"]), ops(traced_run["untraced_ops"])
    assert traced == untraced_in_traced
    assert len(traced) >= 2
    # the traced run runs each op twice in the same budget, so its list is a
    # prefix of the untraced run's
    assert traced == ops(plain_run["ops"])[:len(traced)]


def test_colliding_input_counts_in_failed_ratio(tmp_path):
    base = {"kind": "continuous", "n": 2, "direction": [1.0, 0.0], "dt": 1e-3, "duration": 0.5}
    calm = workloads.Op(0, "calm", {"scenario": dict(base, positions=[-2.0, 2.0], momenta=[0.0, 0.0]),
                                    "argv": ["run"]})
    crash = workloads.Op(1, "crash", {"scenario": dict(base, positions=[-1.0, 1.0], momenta=[3.0, -3.0]),
                                      "argv": ["run"]})
    runner = workloads.WORKLOADS["continuous-wide"].run_op
    collide = workloads.Workload("collide", 2, lambda seed, i: (calm, crash)[i], runner)
    results, passes = workloads.run_passes(collide, 0, tmp_path, budget=0)
    assert passes == 1
    assert [(r.label, r.outcome, r.problems) for r in results] == [("calm", "ok", []), ("crash", "abort", [])]
    assert "CollisionSingularity" in results[1].note
    assert workloads.failed_ratio(results) == 0.5


def test_worst_keeps_a_nan():
    assert workloads.worst([0.5, 2.0]) == 2.0
    assert np.isnan(workloads.worst([0.0, float("nan"), 1.0]))


def test_nan_residual_fails_the_lattice_gate(monkeypatch, tmp_path):
    from cmhier import discrete

    residuals = iter([0.0, float("nan")])  # the second sheet's residual is NaN
    monkeypatch.setattr(workloads, "LATTICE_BATCH", 2)
    monkeypatch.setattr(discrete, "sheet_corner_residuals", lambda sheet: next(residuals))
    result = workloads._run_lattice(workloads._lattice_op(0, 0), tmp_path)
    assert (result.outcome, result.note) == ("gate", "sheet-corner")
    assert np.isnan(result.ratios["sheet-corner"])
    assert np.isnan(run._residual_metrics([result])["residual.sheet-corner.ratio"])


def test_nan_site_is_a_wrong_output():
    from cmhier import discrete

    inp = workloads._lattice_op(0, 0).inputs
    x00, x10 = (np.array(x) for x in inp["edges"][1])
    params = discrete.LatticeParams(p1=inp["p1"], p2=inp["p2"], n=len(x00))
    sheet = discrete.build_lattice_sheet(x00, x10, params, inp["n1"], inp["n2"])
    assert workloads._check_sheet(x00, x10, sheet, inp) == []
    site = sheet.sites[(1, 1)]
    site[-1] = np.nan
    assert workloads._check_sheet(x00, x10, sheet, inp) != []
