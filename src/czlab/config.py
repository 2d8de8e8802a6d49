"""Experiment configuration: strict parsing of the runner's JSON configs.

Configs are plain JSON files with a fixed top-level shape; unknown fields
anywhere are rejected with a diagnostic naming the offending field, and a
parsed config serializes back to the same structure.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

from .dyadics import _finite_number
from .normlab import OPERATOR_KINDS, min_sweep_level

__all__ = ["ConfigError", "ExperimentConfig", "parse_config", "load_config", "sweep_levels", "VERBS"]

# verbs whose outputs depend on pseudo-randomness even with fixed params
_ALWAYS_RANDOM = {"hilbert-approx", "stopping-audit", "sharpness-sweep", "invariant-suite"}

_PARAM_FIELDS = {
    "characteristics": {"weight", "p", "ainfty_mode"},
    "shift-apply": {"input", "operator"},
    "hilbert-approx": {"count", "pairs"},
    "sawyer-test": {"tau", "w", "sigma", "p"},
    "lerner-decompose": {"input", "function"},
    "stopping-audit": {"count", "weight"},
    "sharpness-sweep": {"operators", "p", "N", "budget", "random_starts"},
    "invariant-suite": {"samples"},
}

VERBS = tuple(_PARAM_FIELDS)

# integer params with their least value (0 or 1)
_INTEGER_FIELDS = {
    "hilbert-approx": {"count": 1},
    "stopping-audit": {"count": 1},
    "sharpness-sweep": {"budget": 0, "random_starts": 0},
    "invariant-suite": {"samples": 1},
}

_WEIGHT_FIELDS = {
    "constant": {"kind", "value"},
    "two_value": {"kind", "value", "level"},
    "power": {"kind", "alpha", "center"},
    "cascade": {"kind", "volatility", "seed"},
}

_OPERATOR_FIELDS = {
    "petermichl": {"kind"},
    "random": {"kind", "m", "n", "seed", "cancellative"},
    "paraproduct": {"kind", "coefficients"},
}


class ConfigError(ValueError):
    """Invalid experiment configuration; the message names the field."""


@dataclass(frozen=True)
class ExperimentConfig:
    verb: str
    d: int
    N: int
    seed: int | None
    params: dict[str, Any] = field(default_factory=dict)
    out_format: str = "csv"
    out_path: str | None = None

    def to_dict(self) -> dict:
        out: dict[str, Any] = {
            "verb": self.verb,
            "grid": {"d": self.d, "N": self.N},
            "params": self.params,
            "output": {"format": self.out_format},
        }
        if self.seed is not None:
            out["seed"] = self.seed
        if self.out_path is not None:
            out["output"]["path"] = self.out_path
        return out


def _require_keys(obj: dict, allowed: set[str], where: str):
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"unknown field {key!r} in {where}")


def _check_kind_spec(spec, fields: dict[str, set[str]], where: str):
    if not isinstance(spec, dict):
        raise ConfigError(f"{where} must be an object")
    kind = spec.get("kind")
    if kind not in fields:
        raise ConfigError(f"{where}.kind must be one of {sorted(fields)}")
    _require_keys(spec, fields[kind], where)


def _spec_is_random(spec) -> bool:
    return isinstance(spec, dict) and spec.get("kind") in ("cascade", "random")


def _check_hilbert_params(params: dict):
    pairs = params.get("pairs", [[0, 1, 0, 1]])
    if not isinstance(pairs, list) or not pairs:
        raise ConfigError("params.pairs must be a non-empty list of [f_lo, f_hi, g_lo, g_hi]")
    for i, spec in enumerate(pairs):
        ok = isinstance(spec, list) and len(spec) == 4 and all(type(v) in (int, float) for v in spec)
        if not (ok and 0 <= spec[0] < spec[1] <= 1 and 0 <= spec[2] < spec[3] <= 1):
            raise ConfigError(
                f"params.pairs[{i}] must be [f_lo, f_hi, g_lo, g_hi] with 0 <= lo < hi <= 1"
            )


def _exponent(v) -> bool:
    """A number p in (1, inf): finite, greater than one, not a bool."""
    return _finite_number(v) and v > 1


def _check_exponents(verb: str, params: dict, grid_d: int):
    """sawyer-test's exponent, and characteristics' exponents and A_infty
    mode, whose centred form is implemented for d <= 2 only."""
    if verb == "sawyer-test":
        if not _exponent(params.get("p", 2.0)):
            raise ConfigError("params.p must be a number in (1, infinity)")
        return
    p = params.get("p", [2.0])
    if not isinstance(p, list):
        raise ConfigError("params.p must be a list of numbers in (1, infinity)")
    for i, v in enumerate(p):
        if not _exponent(v):
            raise ConfigError(f"params.p[{i}] must be a number in (1, infinity)")
    mode = params.get("ainfty_mode", "dyadic")
    if mode not in ("dyadic", "centered"):
        raise ConfigError("params.ainfty_mode must be 'dyadic' or 'centered'")
    if mode == "centered" and grid_d > 2:
        raise ConfigError(f"params.ainfty_mode 'centered' needs grid.d <= 2, got grid.d = {grid_d}")


def sweep_levels(params: dict, grid_N: int) -> list:
    """The sharpness sweep's levels: params.N, by default min(grid.N, 8) and
    grid.N, once each."""
    return params.get("N", sorted({min(grid_N, 8), grid_N}))


def _check_sweep_params(params: dict, grid_d: int, grid_N: int):
    """The grid is one-dimensional, and each list the sharpness sweep
    iterates over is non-empty and holds only values it can run, each once:
    known operator kinds, exponents p in (1, inf) and levels N in
    [1, grid.N], none below the sweep's least level for its operators (the
    default levels included)."""
    if grid_d != 1:
        raise ConfigError(
            "sharpness-sweep requires grid.d = 1 (the default sweep operators are one-dimensional)"
        )
    items_ok = {
        "operators": (lambda v: v in OPERATOR_KINDS, f"one of {list(OPERATOR_KINDS)}"),
        "p": (_exponent, "a finite number greater than 1"),
        "N": (lambda v: type(v) is int and 1 <= v <= grid_N, f"an integer in [1, grid.N = {grid_N}]"),
    }
    for key, (ok, what) in items_ok.items():
        if key not in params:
            continue
        items = params[key]
        if not isinstance(items, list) or not items:
            raise ConfigError(f"params.{key} must be a non-empty list")
        for i, v in enumerate(items):
            if not ok(v):
                raise ConfigError(f"params.{key}[{i}] must be {what}")
            if v in items[:i]:
                raise ConfigError(f"params.{key}[{i}] repeats params.{key}[{items.index(v)}]")
    kinds = params.get("operators", list(OPERATOR_KINDS))
    least = min_sweep_level(kinds)
    levels = sweep_levels(params, grid_N)
    low = [i for i, v in enumerate(levels) if v < least]
    if low:
        where = f"params.N[{low[0]}]" if "N" in params else f"params.N (by default {levels} from grid.N)"
        raise ConfigError(
            f"{where} must be at least {least}, the least level the sweep runs at with operators {kinds}"
        )


def parse_config(obj: dict, verb: str | None = None) -> ExperimentConfig:
    if not isinstance(obj, dict):
        raise ConfigError("config root must be an object")
    _require_keys(obj, {"verb", "grid", "seed", "params", "output"}, "config")
    cfg_verb = obj.get("verb")
    if cfg_verb not in VERBS:
        raise ConfigError(f"field 'verb' must be one of {VERBS}")
    if verb is not None and cfg_verb != verb:
        raise ConfigError(f"field 'verb' is {cfg_verb!r} but the command ran {verb!r}")
    grid = obj.get("grid")
    if not isinstance(grid, dict):
        raise ConfigError("field 'grid' must be an object {d, N}")
    _require_keys(grid, {"d", "N"}, "grid")
    for key in ("d", "N"):
        if type(grid.get(key)) is not int:  # type(): JSON true is an int to isinstance
            raise ConfigError(f"grid.{key} must be an integer")
    d, N = grid["d"], grid["N"]
    seed = obj.get("seed")
    if seed is not None:
        if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
            raise ConfigError("field 'seed' must be a non-negative integer")
    params = obj.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("field 'params' must be an object")
    allowed = _PARAM_FIELDS[cfg_verb]
    _require_keys(params, allowed, "params")

    for key, least in _INTEGER_FIELDS.get(cfg_verb, {}).items():
        # an absent field takes the runner's default, which passes; null does not
        value = params.get(key, least)
        if type(value) is not int or value < least:  # type(): JSON true is an int to isinstance
            raise ConfigError(f"params.{key} must be a {('non-negative', 'positive')[least]} integer")
    if cfg_verb == "hilbert-approx":
        _check_hilbert_params(params)
    if cfg_verb == "sharpness-sweep":
        _check_sweep_params(params, d, N)
    if cfg_verb in ("characteristics", "sawyer-test"):
        _check_exponents(cfg_verb, params, d)

    # the runners' defaults draw a random function and a random tau
    randomized = (
        cfg_verb in _ALWAYS_RANDOM
        or (cfg_verb == "lerner-decompose" and not params.keys() & {"function", "input"})
        or (cfg_verb == "sawyer-test" and "tau" not in params)
    )
    for key in ("weight", "w", "sigma"):
        if key in params:
            _check_kind_spec(params[key], _WEIGHT_FIELDS, f"params.{key}")
            randomized = randomized or _spec_is_random(params[key])
    if cfg_verb == "stopping-audit" and "seed" in params.get("weight", {}):
        raise ConfigError(
            "params.weight.seed is not used by stopping-audit: sample i draws from seed + i"
        )
    if "operator" in params:
        _check_kind_spec(params["operator"], _OPERATOR_FIELDS, "params.operator")
        randomized = randomized or _spec_is_random(params["operator"])
    if "tau" in params:
        spec = params["tau"]
        if not isinstance(spec, (dict, list)):
            raise ConfigError("params.tau must be an object or a list")
        if isinstance(spec, dict):
            if spec.get("kind") != "random":
                raise ConfigError("params.tau.kind must be 'random' (or give a list)")
            _require_keys(spec, {"kind", "density", "scale"}, "params.tau")
            # an absent field takes the runner's default, which passes
            density, scale = spec.get("density", 0), spec.get("scale", 0)
            if not (_finite_number(density) and 0 <= density <= 1):
                raise ConfigError("params.tau.density must be a number in [0, 1]")
            if not (_finite_number(scale) and scale >= 0):
                raise ConfigError("params.tau.scale must be a finite number >= 0")
            randomized = True
    if "function" in params:
        spec = params["function"]
        if not isinstance(spec, dict) or spec.get("kind") not in ("random", "values"):
            raise ConfigError("params.function.kind must be 'random' or 'values'")
        if spec["kind"] == "random":
            _require_keys(spec, {"kind", "spikes"}, "params.function")
            spikes = spec.get("spikes", 0)
            if type(spikes) is not int or spikes < 0:
                raise ConfigError("params.function.spikes must be a non-negative integer")
            randomized = True
        else:
            _require_keys(spec, {"kind", "values"}, "params.function")
            values = spec.get("values")
            if not (
                isinstance(values, list)
                and all(_finite_number(v) for v in values)
            ):
                raise ConfigError("params.function.values must be a list of finite numbers, one per cell")
    if randomized and seed is None:
        raise ConfigError(f"field 'seed' is mandatory for randomized verb {cfg_verb!r}")

    output = obj.get("output", {})
    if not isinstance(output, dict):
        raise ConfigError("field 'output' must be an object")
    _require_keys(output, {"format", "path"}, "output")
    out_format = output.get("format", "csv")
    if out_format not in ("csv", "json"):
        raise ConfigError("output.format must be 'csv' or 'json'")
    out_path = output.get("path")
    if out_path is not None and not isinstance(out_path, str):
        raise ConfigError("output.path must be a string")
    return ExperimentConfig(cfg_verb, d, N, seed, params, out_format, out_path)


def load_config(path: str, verb: str | None = None) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    return parse_config(obj, verb)
