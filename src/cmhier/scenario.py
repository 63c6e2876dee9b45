"""Scenario files: strict JSON configuration for the command line.

A scenario names one of four run kinds and carries the initial data, model
parameters, integration controls, a seed for any randomness, and output
choices. Each kind reads the keys KEYS names for it. Unknown keys are rejected
so typos fail loudly, a key of another kind is refused, since the run would
ignore it, and every constraint violation names the offending field.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, fields
from pathlib import Path

import numpy as np

from .errors import ParseError, ValidationError

_SHARED = ("kind", "n", "seed", "out_dir", "tolerance_scale")
_RUN = _SHARED + ("min_gap", "format")
_LATTICE = _RUN + ("seed_prev", "seed_cur", "newton_tolerance")
# kind -> the scenario keys its run reads; a scenario giving any other key is refused
KEYS = {
    "continuous": _RUN + ("positions", "momenta", "duration", "dt", "direction"),
    "discrete": _LATTICE + ("steps",),
    "semidiscrete": _LATTICE + ("chain_edges", "tau_duration", "tau_step"),
    "verify-all": _SHARED,
}
KINDS = tuple(KEYS)
FORMATS = ("csv", "json-lines")
MAX_N = 1024  # largest particle count; the kernels hold N x N pair matrices
MAX_STEPS = 10**6  # largest step or edge count of a run; a run keeps every step's state
# (span field, step field) of the continuous and the chain march; round(span / step) is the step count
_MARCHES = (("duration", "dt"), ("tau_duration", "tau_step"))


@dataclass(frozen=True)
class Scenario:
    kind: str
    n: int
    seed: int = 0
    min_gap: float = 0.5
    out_dir: str = "out"
    format: str = "csv"
    tolerance_scale: float = 1.0
    # continuous
    positions: tuple | None = None
    momenta: tuple | None = None
    duration: float = 1.0
    dt: float = 1e-3
    direction: tuple = (1.0, 0.0)
    # discrete / semidiscrete
    seed_prev: tuple | None = None
    seed_cur: tuple | None = None
    steps: int = 10
    newton_tolerance: float = 1e-13
    chain_edges: int = 2
    tau_duration: float = 0.1
    tau_step: float = 1e-3


_DEFAULTS = {f.name: f.default for f in fields(Scenario) if f.default is not MISSING}
_KNOWN_KEYS = {f.name for f in fields(Scenario)}


def _is_finite_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def _require_number(raw: dict, key: str, positive=False, nonnegative=False):
    if key not in raw:
        return
    value = raw[key]
    if not _is_finite_number(value):
        raise ValidationError(f"field '{key}' must be a finite number")
    if positive and not value > 0:
        raise ValidationError(f"field '{key}' must be positive")
    if nonnegative and value < 0:
        raise ValidationError(f"field '{key}' must be nonnegative")


def _as_float_tuple(raw: dict, key: str, length: int | None = None):
    if key not in raw or raw[key] is None:
        return None
    value = raw[key]
    if not isinstance(value, (list, tuple)) or not all(_is_finite_number(v) for v in value):
        raise ValidationError(f"field '{key}' must be a list of finite numbers")
    if length is not None and len(value) != length:
        raise ValidationError(f"field '{key}' must have exactly {length} entries, got {len(value)}")
    return tuple(float(v) for v in value)


def _validate_gaps(name: str, values: tuple, min_gap: float):
    arr = np.sort(np.asarray(values))
    if len(arr) > 1 and np.min(np.diff(arr)) < min_gap:
        raise ValidationError(f"field '{name}' violates the minimum gap {min_gap}")


def scenario_from_dict(raw: dict) -> Scenario:
    """Validate a raw mapping into a Scenario, applying defaults."""
    if not isinstance(raw, dict):
        raise ValidationError("scenario root must be an object")
    unknown = sorted(set(raw) - _KNOWN_KEYS)
    if unknown:
        raise ValidationError(f"unknown key '{unknown[0]}'")
    if "kind" not in raw:
        raise ValidationError("field 'kind' is required")
    if raw["kind"] not in KINDS:
        raise ValidationError(f"field 'kind' must be one of {KINDS}")
    kind = raw["kind"]
    foreign = sorted(set(raw) - set(KEYS[kind]))
    if foreign:
        raise ValidationError(f"field '{foreign[0]}' is not read by kind '{kind}'")

    if "n" not in raw:
        raise ValidationError("field 'n' is required")
    if not isinstance(raw["n"], int) or isinstance(raw["n"], bool) or not 1 <= raw["n"] <= MAX_N:
        raise ValidationError(f"field 'n' must be an integer between 1 and {MAX_N}")
    n = raw["n"]
    if kind == "verify-all" and n != 3:  # its sections run at N <= 3, whatever n says
        raise ValidationError("field 'n' must be 3 for kind 'verify-all', the size its checks run at")

    for key in ("dt", "tau_step", "newton_tolerance", "tau_duration", "min_gap"):
        _require_number(raw, key, positive=True)
    for key in ("duration", "tolerance_scale"):
        _require_number(raw, key, nonnegative=True)
    seed = raw.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ValidationError("field 'seed' must be a nonnegative integer")
    for key in ("steps", "chain_edges"):
        if key in raw and (not isinstance(raw[key], int) or isinstance(raw[key], bool) or not 1 <= raw[key] <= MAX_STEPS):
            raise ValidationError(f"field '{key}' must be an integer between 1 and {MAX_STEPS}")
    out_dir = raw.get("out_dir", _DEFAULTS["out_dir"])
    if not isinstance(out_dir, str):
        raise ValidationError("field 'out_dir' must be a string")
    if "\0" in out_dir:
        raise ValidationError("field 'out_dir' must not contain a NUL character")
    if raw.get("format", "csv") not in FORMATS:
        raise ValidationError(f"field 'format' must be one of {FORMATS}")

    values = {key: raw.get(key, default) for key, default in _DEFAULTS.items()}
    for key in ("positions", "momenta", "seed_prev", "seed_cur"):
        values[key] = _as_float_tuple(raw, key, n)
    values["direction"] = _as_float_tuple(raw, "direction", 2) or _DEFAULTS["direction"]
    values["duration"] = float(values["duration"])

    sc = Scenario(kind, n, **values)

    # the keys of other kinds keep their defaults, which pass every check below
    if sc.positions is not None:
        _validate_gaps("positions", sc.positions, sc.min_gap)
    for name in ("seed_prev", "seed_cur"):
        seed = getattr(sc, name)
        if seed is not None:
            _validate_gaps(name, seed, sc.min_gap)
    if (sc.positions is None) != (sc.momenta is None):
        raise ValidationError("fields 'positions' and 'momenta' must be given together")
    if (sc.seed_prev is None) != (sc.seed_cur is None):
        raise ValidationError("fields 'seed_prev' and 'seed_cur' must be given together")
    if sc.direction == (0.0, 0.0):
        raise ValidationError("field 'direction' must be nonzero")
    for span, step in _MARCHES:
        # round(ratio) > MAX_STEPS, compared as floats: the ratio may overflow to inf
        if getattr(sc, span) / getattr(sc, step) > MAX_STEPS + 0.5:
            raise ValidationError(f"field '{step}' gives more than {MAX_STEPS} steps over '{span}'")
    return sc


def parse_scenario(path) -> Scenario:
    """Load and validate a scenario file; reports syntax errors with location."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"scenario file not found: {path}")
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except (UnicodeDecodeError, RecursionError) as exc:  # not UTF-8, or nested too deep to decode
        raise ParseError(f"{path}: {exc}") from exc
    return scenario_from_dict(raw)
