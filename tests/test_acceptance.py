"""Acceptance gate: every criterion at its stated tolerance, one line each.

The heavy lifting happens inside the verification suite (seeded, deterministic);
each criterion here asserts the relevant report entries and prints a PASS/FAIL
line so `pytest -s tests/test_acceptance.py` doubles as a human-readable run.
"""

import numpy as np
import pytest

from cmhier.scenario import scenario_from_dict
from cmhier.verify import verify_all


@pytest.fixture(scope="module")
def report():
    return verify_all(scenario_from_dict({"kind": "verify-all", "n": 3, "seed": 0}))


@pytest.fixture(scope="module")
def entries(report):
    return {e.name: e for e in report.entries}


def check(label, entry, extra=""):
    status = "PASS" if entry.passed else "FAIL"
    tol = "diagnostic" if entry.tolerance is None else f"{entry.tolerance:.1e}"
    print(f"[{status}] {label}: residual={entry.residual:.3e} tolerance={tol} {extra}")
    assert entry.passed, f"{label}: residual {entry.residual} vs tolerance {entry.tolerance}"


def test_criterion_01_involution(entries):
    entry = entries["involution-bracket"]
    assert entry.tolerance == 1e-6 and entry.metadata["states"] == 100
    check("criterion 1, involution of the two Hamiltonians (FD bracket)", entry)


def test_criterion_02_commuting_flows(entries):
    entry = entries["commuting-flows"]
    assert entry.tolerance == 1e-6 and entry.metadata["states"] == 20
    check("criterion 2, commuting flows (endpoint defect)", entry)


def test_criterion_03_invariant_conservation(entries):
    for name, label in (
        ("invariant-drift-t2", "criterion 3, invariant drift along t2 over [0,1]"),
        ("invariant-drift-t3", "criterion 3, invariant drift along t3 over [0,0.3]"),
    ):
        entry = entries[name]
        assert entry.tolerance == 1e-8
        check(label, entry)


def test_criterion_04_lax_identity(entries):
    entry = entries["lax-identity"]
    assert entry.tolerance == 1e-10 and entry.metadata["gamma"] == -2.0
    check("criterion 4, pointwise Lax identity", entry)


def test_criterion_05_trace_hamiltonian_match(entries):
    for name, label in (
        ("trace-hamiltonian-match-2", "criterion 5, (1/2)Tr L^2 vs quadratic Hamiltonian"),
        ("trace-hamiltonian-match-3", "criterion 5, (1/3)Tr L^3 vs cubic Hamiltonian"),
    ):
        entry = entries[name]
        assert entry.tolerance == 1e-11
        check(label, entry)


def test_criterion_06_two_body_gap_law(entries):
    entry = entries["two-body-gap-law"]
    assert entry.tolerance == 1e-6 and entry.metadata["relative_energy"] == -0.5
    check("criterion 6, two-body squared-gap law r^2 = 16 - t^2", entry)


def test_criterion_07_discrete_invariants(entries):
    entry = entries["discrete-invariant-drift"]
    assert entry.tolerance == 1e-10 and entry.metadata["steps"] == 50
    check("criterion 7, discrete trace invariants over 50 steps", entry)


def test_criterion_08_multidimensional_consistency(entries):
    entry = entries["plaquette-consistency"]
    assert entry.tolerance == 1e-9 and entry.metadata["plaquettes"] == 20
    check("criterion 8, plaquette route consistency (N = 1, 2, 3)", entry)
    scalar = entries["plaquette-consistency-scalar"]
    assert scalar.tolerance == 1e-12
    check("criterion 8, scalar plaquette vs closed forms", scalar)


def test_criterion_09_discrete_closure_and_logdet(entries):
    closure = entries["discrete-closure"]
    assert closure.tolerance == 1e-8
    assert "value_printed" in closure.metadata and "value_negated" in closure.metadata
    check("criterion 9, plaquette closure sum", closure)
    logdet = entries["logdet-identity"]
    assert logdet.tolerance == 1e-8
    check("criterion 9, log-det identity around the plaquette", logdet)
    edge = entries["edge-lagrangian-logdet"]
    assert edge.metadata["convention"] == "negated"
    assert edge.metadata["identical_across_edges"] is True
    check("criterion 9, per-edge relation (recorded convention: negated)", edge)


def test_criterion_10_noether_conservation(entries):
    entry = entries["noether-conservation"]
    assert entry.tolerance == 1e-8 and entry.metadata["direction"] == [1.0, 1.0]
    check("criterion 10, path energy along direction (1,1)", entry)


def test_criterion_11_generalized_el(entries):
    entry = entries["generalized-el-solution"]
    assert entry.tolerance == 1e-6
    check("criterion 11, generalized EL on solution trajectories", entry)
    control = entries["generalized-el-negative-control"]
    assert control.metadata["required_min"] == 1e-2
    check(
        "criterion 11, perturbed-trajectory negative control",
        control,
        extra=f"(observed {control.metadata['observed']:.3e} >= 1e-02)",
    )


def test_criterion_12_semidiscrete_consistency(entries):
    for name, tol, label in (
        ("semi-velocity-consistency", 1e-8, "criterion 12, interior velocity discrepancy"),
        ("semi-eom", 1e-10, "criterion 12, equation of motion along tau"),
        ("semi-gap-conservation", 1e-10, "criterion 12, one-particle gap conservation"),
    ):
        entry = entries[name]
        assert entry.tolerance == tol
        check(label, entry)


def test_criterion_13_diagnostics_reported(entries):
    flow = entries["closure-sheet-flow-velocity"]
    constraint = entries["closure-sheet-constraint-velocity"]
    for entry, label in (
        (flow, "criterion 13, sheet closure (flow velocities)"),
        (constraint, "criterion 13, sheet closure (constraint velocities)"),
    ):
        assert entry.metadata["diagnostic"] is True
        # second-order differencing: increments shrink fourfold under halving
        assert entry.metadata["halving_ratio"] == pytest.approx(4.0, rel=0.5)
        check(label, entry, extra=f"(eps-halving ratio {entry.metadata['halving_ratio']:.2f})")

    legendre = entries["legendre-transform-t3"]
    assert legendre.metadata["diagnostic"] is True
    assert np.isfinite(legendre.residual)
    check("criterion 13, cubic-member Legendre mismatch", legendre)

    semi = entries["semi-closure"]
    assert semi.metadata["diagnostic"] is True
    assert "printed" in semi.metadata and "negated" in semi.metadata
    assert semi.metadata["halving_change"] <= 1e-8
    check("criterion 13, semi-discrete closure (both conventions)", semi)

    printed_edge = entries["edge-lagrangian-logdet-printed"]
    assert printed_edge.metadata["diagnostic"] is True
    check("criterion 13, per-edge relation under the printed convention", printed_edge)


def test_discrete_lax_gate_closes_the_report(report):
    lax, control = report.entries[-2:]
    assert lax.name == "discrete-lax-identity" and lax.tolerance == 1e-11 and lax.passed
    assert control.name == "discrete-lax-negative-control" and control.passed
    assert control.metadata["observed"] >= 1e-2 and control.metadata["required_min"] == 1e-2


def test_all_gated_entries_pass(report):
    gated = [e for e in report.entries if e.tolerance is not None]
    failed = [e.name for e in gated if not e.passed]
    print(f"[{'PASS' if not failed else 'FAIL'}] full gate: "
          f"{len(gated) - len(failed)}/{len(gated)} gated checks passed")
    assert not failed, f"failing checks: {failed}"
