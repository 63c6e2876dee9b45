"""Seeded inputs, one operation per workload, and the checks on its outputs.

A workload turns (seed, op index) into the inputs of one operation, runs it
against cmhier and classifies the result as ok, a gate failure or an abort.
The harness also checks every output against something the program did not
compute itself (strict JSON, exit code against report, exact projection
solutions), so `correct` means the outputs are right, while `failed` counts
the operations on which the program's own gates failed or it aborted.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import shutil
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import calibration

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# verify-suite walks these verify-all seeds, in a seeded order, every pass.
# A pool drawn afresh from --seed would make failed_ratio a binomial draw
# (about +-50% at ten ops) that no bound could hold; seeds 5, 6 and 7 fail
# gates at the baseline and stay in the pool.
VERIFY_POOL = tuple(range(10))

# Gated checks verify-all must report; a report missing one is wrong output.
VERIFY_GATES = (
    "involution-bracket", "commuting-flows", "invariant-drift-t2", "invariant-drift-t3",
    "lax-identity", "trace-hamiltonian-match-2", "trace-hamiltonian-match-3",
    "two-body-gap-law", "discrete-invariant-drift", "plaquette-consistency",
    "plaquette-consistency-scalar", "discrete-closure", "logdet-identity",
    "edge-lagrangian-logdet", "noether-conservation", "generalized-el-solution",
    "semi-velocity-consistency", "semi-eom", "semi-gap-conservation",
)
CONTINUOUS_GATES = ("invariant-drift", "energy-drift")
SEMIDISCRETE_GATES = ("semi-velocity-consistency", "semi-eom")
# lattice-sheet gates, computed by the harness from library calls
LATTICE_GATES = {"sheet-corner": 1e-9, "plaquette-consistency": 1e-9, "logdet-identity": 1e-8}

ORACLE_TOL = 1e-8  # harness's own checks against exact solutions

# One lattice sheet takes under 0.1 s, shorter than the reference block that
# follows every op (see calibration.py), so one lattice-sheet op is a batch of
# sheets and takes about as long as the other workloads' ops.
LATTICE_BATCH = 8


def load_program():
    """Import cmhier and every one of its modules from the checkout's src/ and
    from nowhere else, so that set-up holds every import an op reaches."""
    if not (SRC / "cmhier" / "__init__.py").is_file():
        raise SystemExit(f"error: no cmhier sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import cmhier

    if Path(cmhier.__file__).resolve().parent != (SRC / "cmhier").resolve():
        raise SystemExit(f"error: cmhier imported from {cmhier.__file__}, not from {SRC}")
    for path in sorted((SRC / "cmhier").glob("*.py")):
        if path.stem not in ("__init__", "__main__"):
            importlib.import_module(f"cmhier.{path.stem}")
    return cmhier


def spaced_positions(rng: np.random.Generator, n: int, spacing: float, jitter: float) -> np.ndarray:
    """Sorted positions on a centred grid, each moved by at most +-jitter."""
    return spacing * (np.arange(n) - (n - 1) / 2.0) + rng.uniform(-jitter, jitter, n)


@dataclass(frozen=True)
class Op:
    """Inputs of one operation; plain JSON data so a seed's inputs can be compared byte for byte."""

    index: int
    label: str
    inputs: dict


@dataclass
class OpResult:
    index: int
    label: str
    outcome: str                      # "ok", "gate" or "abort"
    seconds: float
    problems: list = field(default_factory=list)   # harness checks that failed
    ratios: dict = field(default_factory=dict)     # gated check -> residual / tolerance
    note: str = ""


@dataclass(frozen=True)
class Workload:
    name: str
    pass_size: int
    make_op: Callable[[int, int], Op]
    run_op: Callable[[Op, Path], OpResult]
    reference: tuple[int, int, int] = calibration.MIXED  # the block run after each op

    def make_pass(self, seed: int, pass_index: int) -> list[Op]:
        first = pass_index * self.pass_size
        return [self.make_op(seed, i) for i in range(first, first + self.pass_size)]


def _rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, index])


def worst(values) -> float:
    """Largest of the values, and NaN if any is NaN (Python's max can drop a NaN)."""
    return float(np.max(np.asarray(values, dtype=float)))


# ---------------------------------------------------------------- inputs


def _verify_op(seed: int, index: int) -> Op:
    pass_index, pos = divmod(index, len(VERIFY_POOL))
    order = np.random.default_rng([seed, pass_index]).permutation(len(VERIFY_POOL))
    verify_seed = VERIFY_POOL[int(order[pos])]
    return Op(index, f"seed{verify_seed}", {
        "scenario": {"kind": "verify-all", "n": 3},
        "argv": ["verify", "--seed", str(verify_seed)],
    })


def _continuous_op(seed: int, index: int) -> Op:
    rng, n = _rng(seed, index), 64
    x = spaced_positions(rng, n, 3.0, 0.3)
    p = np.sort(rng.uniform(-0.5, 0.5, n))
    return Op(index, f"op{index}", {
        "scenario": {
            "kind": "continuous", "n": n, "positions": x.tolist(), "momenta": p.tolist(),
            "direction": [1.0, 1.0], "dt": 1e-3, "duration": 0.5,
        },
        "argv": ["run"],
    })


def _semidiscrete_op(seed: int, index: int) -> Op:
    rng, n = _rng(seed, index), 8
    x_prev = spaced_positions(rng, n, 4.0, 0.4)
    x_cur = x_prev + 0.3 * rng.uniform(0.9, 1.1, n)
    return Op(index, f"op{index}", {
        "scenario": {
            "kind": "semidiscrete", "n": n, "seed_prev": x_prev.tolist(), "seed_cur": x_cur.tolist(),
            "chain_edges": 8, "tau_duration": 0.1, "tau_step": 1e-3,
        },
        "argv": ["run"],
    })


def _lattice_op(seed: int, index: int) -> Op:
    rng, n, p1, p2 = _rng(seed, index), 32, 1.0, 2.0
    edges = []
    for _ in range(LATTICE_BATCH):
        x00 = spaced_positions(rng, n, 3.0, 0.3)
        x10 = x00 + rng.uniform(0.9, 1.1, n) / (p1 + p2)
        edges.append([x00.tolist(), x10.tolist()])
    return Op(index, f"op{index}", {"edges": edges, "p1": p1, "p2": p2, "n1": 4, "n2": 4})


def write_inputs(op: Op, workdir: Path) -> Path:
    """Write an op's inputs to a file: the scenario the CLI reads, or the lattice arrays."""
    path = workdir / "scenario.json"
    path.write_text(json.dumps(op.inputs.get("scenario", op.inputs), sort_keys=True) + "\n", encoding="utf-8")
    return path


# ---------------------------------------------------------------- running


def _reject_constant(token):
    raise ValueError(f"non-strict JSON constant {token}")


def read_strict_json(path: Path):
    """Parse a JSON file, rejecting NaN and +-Infinity."""
    return json.loads(path.read_text(encoding="utf-8"), parse_constant=_reject_constant)


def _gate_ratios(entries, names) -> dict:
    ratios = {}
    for e in entries:
        if e["name"] in names and e["tolerance"]:
            ratios[e["name"]] = e["residual"] / e["tolerance"]
    return ratios


def _report_problems(report, code: int, required) -> list[str]:
    """Internal consistency of a report and of the exit code that came with it."""
    entries = report.get("entries", [])
    problems = []
    for e in entries:
        if e["tolerance"] is not None and e["passed"] != (e["residual"] <= e["tolerance"]):
            problems.append(f"{e['name']}: passed flag disagrees with residual and tolerance")
    n_passed = sum(1 for e in entries if e["passed"])
    summary = report.get("summary", {})
    if (summary.get("total"), summary.get("passed")) != (len(entries), n_passed):
        problems.append("summary disagrees with entries")
    if (code == 0) != (n_passed == len(entries)):
        problems.append(f"exit code {code} disagrees with {len(entries) - n_passed} failed entries")
    gated = {e["name"] for e in entries if e["tolerance"] is not None}
    problems += [f"gated check {name} missing" for name in required if name not in gated]
    return problems


def _read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return lines[0].split(","), np.array([[float(v) for v in line.split(",")] for line in lines[1:]])


def _check_continuous(op: Op, out: Path) -> list[str]:
    """Trajectory shape, and its endpoint against the projection-method solution
    x(s) = eig(diag x0 + s (d2 L0 + d3 L0^2)) of the rational CM flows."""
    from cmhier import hierarchy

    sc = op.inputs["scenario"]
    n, (d2, d3) = sc["n"], sc["direction"]
    header, rows = _read_csv(out / "trajectory.csv")
    steps = round(sc["duration"] / sc["dt"])
    if len(header) != 2 * n + 6 or rows.shape != (steps + 1, len(header)):
        return [f"trajectory has shape {rows.shape}, header {len(header)}"]
    x0, p0 = np.array(sc["positions"]), np.array(sc["momenta"])
    L0, _ = hierarchy.build_lax_pair(hierarchy.PhaseState(x0, p0))
    s = rows[-1, 0]
    exact = np.sort(np.linalg.eigvals(np.diag(x0) + s * (d2 * L0 + d3 * L0 @ L0)).real)
    err = float(np.max(np.abs(np.sort(rows[-1, 3:3 + n]) - exact)))
    return [] if err <= ORACLE_TOL else [f"endpoint off the exact solution by {err:.3e}"]


def _check_semidiscrete(op: Op, out: Path) -> list[str]:
    """Chain shape, and mid-run tau-velocities (central differences of the
    written chain) against a direct solve of every edge constraint."""
    sc = op.inputs["scenario"]
    n, k_len = sc["n"], sc["chain_edges"]
    header, rows = _read_csv(out / "chain.csv")
    steps = round(sc["tau_duration"] / sc["tau_step"])
    if len(header) != 1 + (k_len + 1) * n or rows.shape != (steps + 1, len(header)):
        return [f"chain has shape {rows.shape}, header {len(header)}"]
    sites = rows[:, 1:].reshape(len(rows), k_len + 1, n)
    m = len(rows) // 2
    h = rows[m + 1, 0] - rows[m, 0]
    v_fd = (sites[m + 1] - sites[m - 1]) / (2 * h)
    errs = []
    for k in range(k_len):
        a, b = sites[m, k], sites[m, k + 1]
        v_b = np.linalg.solve(1.0 / (a[:, None] - b[None, :]) ** 2, -np.ones(n))
        v_a = np.linalg.solve(1.0 / (b[:, None] - a[None, :]) ** 2, -np.ones(n))
        errs += [np.max(np.abs(v_b - v_fd[k + 1])), np.max(np.abs(v_a - v_fd[k]))]
    err = worst(errs)
    return [] if err <= ORACLE_TOL else [f"tau-velocities off the edge constraints by {err:.3e}"]


def _cli_runner(required, check_outputs) -> Callable[[Op, Path], OpResult]:
    def run(op: Op, workdir: Path) -> OpResult:
        from cmhier import cli

        out = workdir / "out"
        shutil.rmtree(out, ignore_errors=True)
        command, *flags = op.inputs["argv"]
        argv = [command, str(write_inputs(op, workdir)), *flags, "--out-dir", str(out)]
        note = ""
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
            start = time.perf_counter()
            try:
                code = cli.main(argv)
            except Exception as exc:  # the CLI contract says it never raises; count it as an abort
                code, note = None, f"raised {type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - start
        if code not in (0, 1):
            return OpResult(op.index, op.label, "abort", seconds, note=note or err.getvalue().strip())
        try:
            report = read_strict_json(out / "report.json")
        except (OSError, ValueError) as exc:
            return OpResult(op.index, op.label, "gate", seconds, note=f"report unreadable: {exc}")
        entries = report["entries"]
        problems = _report_problems(report, code, required)
        if check_outputs is not None:
            problems += check_outputs(op, out)
        outcome = "ok" if code == 0 else "gate"
        failing = ",".join(e["name"] for e in entries if not e["passed"])
        return OpResult(op.index, op.label, outcome, seconds, problems, _gate_ratios(entries, required), failing)

    return run


def _run_lattice(op: Op, workdir: Path) -> OpResult:
    from cmhier import discrete
    from cmhier.errors import NumericsError

    inp = op.inputs
    edges = [(np.array(x00), np.array(x10)) for x00, x10 in inp["edges"]]
    params = discrete.LatticeParams(p1=inp["p1"], p2=inp["p2"], n=len(edges[0][0]))
    residuals = {name: [] for name in LATTICE_GATES}
    sheets = []
    start = time.perf_counter()
    try:
        for x00, x10 in edges:
            sheet = discrete.build_lattice_sheet(x00, x10, params, inp["n1"], inp["n2"])
            plaquette, defect = discrete.build_plaquette(x00, x10, params)
            for name, value in (("sheet-corner", discrete.sheet_corner_residuals(sheet)),
                                ("plaquette-consistency", defect),
                                ("logdet-identity", discrete.logdet_identity_residual(plaquette))):
                residuals[name].append(value)
            sheets.append(sheet)
    except NumericsError as exc:
        seconds = time.perf_counter() - start
        return OpResult(op.index, op.label, "abort", seconds, note=f"{type(exc).__name__}: {exc}")
    seconds = time.perf_counter() - start

    ratios = {name: worst(residuals[name]) / tol for name, tol in LATTICE_GATES.items()}
    failing = [name for name, r in ratios.items() if not r <= 1.0]
    problems = []
    for (x00, x10), sheet in zip(edges, sheets):
        problems += _check_sheet(x00, x10, sheet, inp)
    outcome = "gate" if failing else "ok"
    return OpResult(op.index, op.label, outcome, seconds, problems, ratios, ",".join(failing))


def _check_sheet(x00: np.ndarray, x10: np.ndarray, sheet, inp: dict) -> list[str]:
    """Every site against x(n1, n2) = eig(diag x00 - n1 A - n2 B), where
    A = L^-1, B = (L + (p2 - p1) I)^-1 and L is the discrete Lax matrix on (x00, x10)."""
    from cmhier import discrete

    if len(sheet.sites) != (inp["n1"] + 1) * (inp["n2"] + 1):
        return [f"sheet has {len(sheet.sites)} sites"]
    lax, _ = discrete.build_discrete_lax(x00, x10)
    a = np.linalg.inv(lax)
    b = np.linalg.inv(lax + (inp["p2"] - inp["p1"]) * np.eye(len(x00)))
    errs = []
    for (i, j), site in sheet.sites.items():
        exact = np.sort(np.linalg.eigvals(np.diag(x00) - i * a - j * b).real)
        errs.append(np.max(np.abs(np.sort(site) - exact)))
    err = worst(errs)
    return [] if err <= ORACLE_TOL else [f"sheet off the exact solution by {err:.3e}"]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("verify-suite", len(VERIFY_POOL), _verify_op, _cli_runner(VERIFY_GATES, None)),
        Workload("continuous-wide", 1, _continuous_op, _cli_runner(CONTINUOUS_GATES, _check_continuous),
                 calibration.ARRAYS),
        Workload("semidiscrete-chain", 1, _semidiscrete_op, _cli_runner(SEMIDISCRETE_GATES, _check_semidiscrete)),
        Workload("lattice-sheet", 1, _lattice_op, _run_lattice),
    )
}

RESIDUAL_CHECKS = tuple(dict.fromkeys(VERIFY_GATES + CONTINUOUS_GATES + SEMIDISCRETE_GATES + tuple(LATTICE_GATES)))


def run_passes(workload: Workload, seed: int, workdir: Path, budget: float) -> tuple[list[OpResult], int]:
    """Closed loop over whole passes of the op list: runs at least one, and
    starts another only while the time used plus the last pass's time stays
    within `budget` seconds."""
    results: list[OpResult] = []
    started = time.perf_counter()
    done = 0
    while True:
        pass_start = time.perf_counter()
        for op in workload.make_pass(seed, done):
            results.append(workload.run_op(op, workdir))
        done += 1
        now = time.perf_counter()
        if now - started + (now - pass_start) > budget:
            break
    return results, done


def failed_ratio(results: list[OpResult]) -> float:
    return sum(r.outcome != "ok" for r in results) / len(results)
