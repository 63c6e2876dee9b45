"""Command-line front end: run scenarios, verify identities, canned demos.

Exit status: 0 when every check passes, 1 when a check fails, 2 on any
numerical abort or configuration problem. Trajectory files use the shortest
round-trip decimal representation so identical runs are byte-identical.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__, discrete, flows, semidiscrete
from .errors import NumericsError, ScenarioError, ValidationError
from .hierarchy import CouplingConvention, PhaseState, invariants
from .numerics import NewtonSettings
from .sampling import orbit_seed, random_phase_state
from .scenario import Scenario, parse_scenario, scenario_from_dict
from .verify import (
    Collector,
    VerificationReport,
    chain_residuals,
    energy_drift,
    orbit_invariant_drift,
    relative_drift,
    verify_all,
)


def _fmt(value) -> str:
    return repr(float(value))


def _write_rows(stem: Path, header: list[str], rows: list[list[float]], fmt: str) -> Path:
    """Write rows to stem.csv or, for json-lines, stem.jsonl; returns the path."""
    if fmt == "csv":
        path = stem.with_suffix(".csv")
        lines = [",".join(header)] + [",".join(_fmt(v) for v in row) for row in rows]
    else:  # json-lines
        path = stem.with_suffix(".jsonl")
        lines = [json.dumps(dict(zip(header, [float(v) for v in row])), sort_keys=True) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def _write_report(path: Path, report: VerificationReport, scenario: Scenario) -> None:
    payload = report.to_dict()
    payload["scenario"] = {"kind": scenario.kind, "n": scenario.n, "seed": scenario.seed}
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _seeded(draw, sc: Scenario, **kwargs):
    """Seeded initial data for sc.n particles; a failed draw is a configuration error."""
    rng = np.random.default_rng(sc.seed)
    try:
        return draw(rng, sc.n, **kwargs)
    except (ValueError, RuntimeError) as exc:
        raise ValidationError(f"field 'n': cannot draw a seeded initial state for n={sc.n}: {exc}") from exc


def _lattice_sites(sc: Scenario, count: int) -> list[np.ndarray]:
    """The seed pair (given or drawn), extended by discrete steps to `count` sites."""
    params = discrete.LatticeParams(
        p1=sc.p1, p2=sc.p2, n=sc.n, newton=NewtonSettings(tolerance=sc.newton_tolerance)
    )
    given = sc.seed_prev is not None and sc.seed_cur is not None
    seed = (sc.seed_prev, sc.seed_cur) if given else _seeded(orbit_seed, sc)
    return discrete.discrete_orbit(*seed, params, count)


def _continuous_artifacts(sc: Scenario, out_dir: Path) -> tuple[list[Path], VerificationReport]:
    if sc.positions is not None:
        state = PhaseState(np.array(sc.positions), np.array(sc.momenta))
    else:
        state = _seeded(random_phase_state, sc, min_gap=sc.min_gap)
    conv = CouplingConvention(sc.gamma)
    direction = np.array(sc.direction)
    traj = flows.evolve_path(state, flows.PathSpec(direction, sc.duration, steps=1), dt_s=sc.dt)

    header = (
        ["s", "t2", "t3"]
        + [f"x{i + 1}" for i in range(sc.n)]
        + [f"p{i + 1}" for i in range(sc.n)]
        + ["I1", "I2", "I3"]
    )
    values = np.array([invariants(smp.state, conv, kmax=3) for smp in traj.samples])
    rows = [
        [smp.s, smp.t2, smp.t3, *smp.state.x, *smp.state.p, *vals]
        for smp, vals in zip(traj.samples, values)
    ]
    traj_path = _write_rows(out_dir / "trajectory", header, rows, sc.format)

    col = Collector(sc.tolerance_scale)
    col.gated("invariant-drift", relative_drift(values), 1e-8, n=sc.n, duration=sc.duration, dt=sc.dt)
    col.gated("energy-drift", energy_drift(traj, direction), 1e-8, direction=[float(d) for d in direction])
    return [traj_path], VerificationReport(tuple(col.entries))


def _discrete_artifacts(sc: Scenario, out_dir: Path) -> tuple[list[Path], VerificationReport]:
    # `steps` is the final site index; the seed pair already spans sites 0 and 1
    orbit = _lattice_sites(sc, sc.steps + 1)
    header = ["n"] + [f"x{i + 1}" for i in range(sc.n)]
    rows = [[float(k), *site] for k, site in enumerate(orbit)]
    orbit_path = _write_rows(out_dir / "orbit", header, rows, sc.format)

    col = Collector(sc.tolerance_scale)
    worst_el = max(
        (
            float(np.max(np.abs(discrete.discrete_el_residual(orbit[k - 1], orbit[k], orbit[k + 1]))))
            for k in range(1, len(orbit) - 1)
        ),
        default=0.0,
    )
    col.gated("discrete-el-residual", worst_el, 10 * sc.newton_tolerance, steps=sc.steps)
    col.gated("discrete-invariant-drift", orbit_invariant_drift(orbit), 1e-10, steps=sc.steps)
    return [orbit_path], VerificationReport(tuple(col.entries))


def _semidiscrete_artifacts(sc: Scenario, out_dir: Path) -> tuple[list[Path], VerificationReport]:
    chain = semidiscrete.Chain(tuple(_lattice_sites(sc, sc.chain_edges + 1)))
    n_steps = max(1, int(round(sc.tau_duration / sc.tau_step)))
    snaps = semidiscrete.evolve_chain(chain, sc.tau_duration / n_steps, n_steps)

    header = ["tau"] + [f"y{k}_x{i + 1}" for k in range(chain.length + 1) for i in range(sc.n)]
    rows = [[snap.tau, *np.concatenate(snap.sites)] for snap in snaps]
    chain_path = _write_rows(out_dir / "chain", header, rows, sc.format)

    col = Collector(sc.tolerance_scale)
    worst_disc, worst_eom, gap_drift = chain_residuals(snaps)
    col.gated("semi-velocity-consistency", worst_disc, 1e-8, tau_span=sc.tau_duration)
    if worst_eom is not None:
        col.gated("semi-eom", worst_eom, 1e-10, tau_span=sc.tau_duration)
    if gap_drift is not None:
        col.gated("semi-gap-conservation", gap_drift, 1e-10)
    return [chain_path], VerificationReport(tuple(col.entries))


_RUNS = {
    "continuous": _continuous_artifacts,
    "discrete": _discrete_artifacts,
    "semidiscrete": _semidiscrete_artifacts,
    "verify-all": lambda sc, out_dir: ([], verify_all(sc)),
}


def run_scenario(sc: Scenario) -> tuple[list[Path], VerificationReport]:
    """Execute a scenario, write its artifacts, and return the check report."""
    out_dir = Path(sc.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths, report = _RUNS[sc.kind](sc, out_dir)
    report_path = out_dir / "report.json"
    _write_report(report_path, report, sc)
    return paths + [report_path], report


DEMOS = {
    "continuous": {
        "kind": "continuous", "n": 2,
        "positions": [-2.0, 2.0], "momenta": [0.0, 0.0],
        "duration": 0.5, "dt": 1e-3,
    },
    "discrete": {
        "kind": "discrete", "n": 1,
        "seed_prev": [0.0], "seed_cur": [1.0], "steps": 10,
    },
    "semidiscrete": {
        "kind": "semidiscrete", "n": 2,
        "seed_prev": [-2.0, 2.0], "seed_cur": [-1.7, 2.36],
        "chain_edges": 2, "tau_duration": 0.1, "tau_step": 1e-3,
    },
    "verify": {"kind": "verify-all", "n": 3},
}


def _apply_overrides(sc: Scenario, args) -> Scenario:
    """The scenario with the command-line overrides, validated like scenario keys."""
    updates = {
        key: getattr(args, key)
        for key in ("out_dir", "seed", "tolerance_scale", "format")
        if getattr(args, key) is not None
    }
    return scenario_from_dict({**dataclasses.asdict(sc), **updates})


def _finish(report: VerificationReport) -> int:
    for entry in report.entries:
        mark = "PASS" if entry.passed else "FAIL"
        tol = "---" if entry.tolerance is None else f"{entry.tolerance:.2e}"
        print(f"{mark}  {entry.name:40s} residual={entry.residual: .6e}  tolerance={tol}")
    print(f"{report.n_passed}/{report.total} checks passed")
    return 0 if report.all_passed else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cmhier",
        description="Calogero-Moser hierarchy simulations and identity verification",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out-dir", default=None, help="override the output directory")
    common.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    common.add_argument("--tolerance-scale", type=float, default=None,
                        help="multiply every check tolerance")
    common.add_argument("--format", choices=["csv", "json-lines"], default=None,
                        help="trajectory file format")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", parents=[common], help="run a scenario file")
    p_run.add_argument("config", help="path to a scenario file")
    p_verify = sub.add_parser("verify", parents=[common], help="run the verification suite")
    p_verify.add_argument("config", help="path to a scenario file (kind verify-all)")
    p_demo = sub.add_parser("demo", parents=[common], help="run a bundled demo scenario")
    p_demo.add_argument("name", choices=sorted(DEMOS), help="demo name")
    args = parser.parse_args(argv)

    try:
        if args.command in ("run", "verify"):
            sc = parse_scenario(args.config)
            if args.command == "verify" and sc.kind != "verify-all":
                raise ScenarioError("the verify command needs a scenario of kind 'verify-all'")
        else:
            sc = scenario_from_dict(dict(DEMOS[args.name]))
        sc = _apply_overrides(sc, args)
        paths, report = run_scenario(sc)
    except (ScenarioError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericsError as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2

    for path in paths:
        print(f"wrote {path}")
    return _finish(report)


if __name__ == "__main__":
    sys.exit(main())
