"""Command-line front end: run scenarios, verify identities, canned demos.

Exit status: 0 when every check passes, 1 when a check fails, 2 on any
numerical abort, configuration problem or file error. Trajectory files use the shortest
round-trip decimal representation so identical runs are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__, discrete, flows, semidiscrete
from .errors import NumericsError, ScenarioError, ValidationError
from .hierarchy import PhaseState, lax_invariants
from .numerics import NewtonSettings, row_blocks
from .sampling import orbit_seed, random_phase_state
from .scenario import KEYS, Scenario, parse_scenario, scenario_from_dict
from .verify import (
    Collector,
    VerificationReport,
    chain_residuals,
    energy_drift,
    orbit_invariant_drift,
    relative_drift,
    verify_all,
)


def _strict_json(payload, **kwargs) -> str:
    """Strict JSON text of payload; a NaN or infinite value is a NumericsError, not a bare NaN."""
    try:
        return json.dumps(payload, sort_keys=True, allow_nan=False, **kwargs)
    except ValueError as exc:
        raise NumericsError(f"cannot write a non-finite value as strict JSON: {exc}") from exc


def _write_rows(stem: Path, header: list[str], rows: np.ndarray, fmt: str) -> Path:
    """Write the rows of a float array to stem.csv or, for json-lines, stem.jsonl; returns the path."""
    rows = np.asarray(rows, dtype=float).tolist()  # Python floats, whose repr is the shortest round trip
    if fmt == "csv":
        path = stem.with_suffix(".csv")
        lines = [",".join(header)] + [",".join(map(repr, row)) for row in rows]
    else:  # json-lines
        path = stem.with_suffix(".jsonl")
        lines = [_strict_json(dict(zip(header, row))) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def _write_report(path: Path, report: VerificationReport, scenario: Scenario) -> None:
    payload = report.to_dict()
    payload["scenario"] = {"kind": scenario.kind, "n": scenario.n, "seed": scenario.seed}
    path.write_text(_strict_json(payload, indent=2) + "\n", encoding="utf-8")


def _seeded(draw, sc: Scenario, **kwargs):
    """Seeded initial data for sc.n particles; a failed draw is a configuration error."""
    rng = np.random.default_rng(sc.seed)
    try:
        return draw(rng, sc.n, **kwargs)
    except (ValueError, RuntimeError) as exc:
        raise ValidationError(f"field 'n': cannot draw a seeded initial state for n={sc.n}: {exc}") from exc


def _lattice_sites(sc: Scenario, count: int) -> list[np.ndarray]:
    """The seed pair (given or drawn), extended by discrete steps to `count` sites."""
    # an orbit reads only its Newton settings: p1 and p2 cancel from the equation of motion
    params = discrete.LatticeParams(p1=1.0, p2=2.0, n=sc.n, newton=NewtonSettings(tolerance=sc.newton_tolerance))
    seed = (sc.seed_prev, sc.seed_cur) if sc.seed_prev is not None else _seeded(orbit_seed, sc)
    return discrete.discrete_orbit(*seed, params, count)


def _continuous_artifacts(sc: Scenario, out_dir: Path) -> tuple[list[Path], VerificationReport]:
    if sc.positions is not None:
        state = PhaseState(np.array(sc.positions), np.array(sc.momenta))
    else:
        state = _seeded(random_phase_state, sc, min_gap=sc.min_gap)
    path = flows.PathSpec(sc.direction, sc.duration, max(1, int(round(sc.duration / sc.dt))))
    traj = flows.evolve_path(state, path)

    col = Collector(sc.tolerance_scale)
    with np.errstate(all="ignore"):  # an overflow ends as a non-finite residual, which the gate refuses
        values = traj.per_sample(lax_invariants)
        col.gated("invariant-drift", relative_drift(values), 1e-8, n=sc.n, duration=sc.duration, dt=sc.dt)
        col.gated("energy-drift", energy_drift(traj), 1e-8, direction=path.direction)

    header = ["s", "t2", "t3", *(f"{v}{i + 1}" for v in "xp" for i in range(sc.n)), "I1", "I2", "I3"]
    rows = np.hstack([traj.times(), traj.x, traj.p, values])
    return [_write_rows(out_dir / "trajectory", header, rows, sc.format)], VerificationReport(tuple(col.entries))


def _discrete_artifacts(sc: Scenario, out_dir: Path) -> tuple[list[Path], VerificationReport]:
    # `steps` is the final site index; the seed pair already spans sites 0 and 1
    orbit = _lattice_sites(sc, sc.steps + 1)
    sites = np.array(orbit)
    col = Collector(sc.tolerance_scale)
    residuals = [discrete.discrete_el_residual(sites[:-2][rows], sites[1:-1][rows], sites[2:][rows])
                 for rows in row_blocks(len(sites) - 2, sc.n**2)]
    worst_el = float(np.max([np.abs(r).max() for r in residuals], initial=0.0))
    col.gated("discrete-el-residual", worst_el, 10 * sc.newton_tolerance, steps=sc.steps)
    col.gated("discrete-invariant-drift", orbit_invariant_drift(orbit), 1e-10, steps=sc.steps)

    header = ["n"] + [f"x{i + 1}" for i in range(sc.n)]
    orbit_path = _write_rows(out_dir / "orbit", header, np.column_stack((np.arange(len(sites)), sites)), sc.format)
    return [orbit_path], VerificationReport(tuple(col.entries))


def _semidiscrete_artifacts(sc: Scenario, out_dir: Path) -> tuple[list[Path], VerificationReport]:
    start = semidiscrete.Chain(_lattice_sites(sc, sc.chain_edges + 1))
    n_steps = max(1, int(round(sc.tau_duration / sc.tau_step)))
    chain = semidiscrete.evolve_chain(start, sc.tau_duration / n_steps, n_steps)
    col = Collector(sc.tolerance_scale)
    worst_disc, worst_eom, gap_drift = chain_residuals(chain)
    col.gated("semi-velocity-consistency", worst_disc, 1e-8, tau_span=sc.tau_duration)
    if worst_eom is not None:
        col.gated("semi-eom", worst_eom, 1e-10, tau_span=sc.tau_duration)
    if gap_drift is not None:
        col.gated("semi-gap-conservation", gap_drift, 1e-10)

    header = ["tau"] + [f"y{k}_x{i + 1}" for k in range(chain.length + 1) for i in range(sc.n)]
    rows = np.hstack([chain.tau[:, None], chain.sites.reshape(len(chain.tau), -1)])
    return [_write_rows(out_dir / "chain", header, rows, sc.format)], VerificationReport(tuple(col.entries))


_RUNS = {
    "continuous": _continuous_artifacts,
    "discrete": _discrete_artifacts,
    "semidiscrete": _semidiscrete_artifacts,
    "verify-all": lambda sc, out_dir: ([], verify_all(sc)),
}


def run_scenario(sc: Scenario) -> tuple[list[Path], VerificationReport]:
    """Execute a scenario, write its artifacts, and return the check report. Each run gates before it writes
    its trajectory, and a report that cannot be written removes that trajectory, so a failed run leaves no file."""
    out_dir = Path(sc.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths, report = _RUNS[sc.kind](sc, out_dir)
    report_path = out_dir / "report.json"
    try:
        _write_report(report_path, report, sc)
    except (OSError, NumericsError):
        for path in paths:
            path.unlink()
        raise
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
    """The scenario with the command-line overrides, validated like scenario keys: a flag whose key the
    scenario's kind does not read is refused."""
    updates = {
        key: getattr(args, key)
        for key in ("out_dir", "seed", "tolerance_scale", "format")
        if getattr(args, key) is not None
    }
    return scenario_from_dict({**{key: getattr(sc, key) for key in KEYS[sc.kind]}, **updates})


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
    except (ScenarioError, OSError) as exc:
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
