"""Experiment runner: verb dispatch, deterministic seeding, CSV/JSON output.

Every run writes its result files plus a manifest echoing the config, the
library version, wall time, and the derived constants of the run, on one
line with sorted keys, as json.dumps(manifest, sort_keys=True,
separators=(",", ":")) writes it (with the C JSON encoder; an indented dump
falls back to the pure-Python one).  With a fixed config and seed the numerical
result files are byte-identical across reruns; the manifest differs only in
its wall-time field.  Floats are emitted with 17 significant digits so
values round-trip exactly.

Exit codes are listed in `_EXIT_CODES` (the `czlab --help` epilog).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import asdict, astuple

import numpy as np

from . import __version__
from .characteristics import (
    _ainfty_rows,
    _ap_rows,
    _maximal_rows,
    ainfty_characteristic,
    ap_characteristic,
    dual_weight,
    joint_ap,
)
from .config import ConfigError, ExperimentConfig, load_config, sweep_levels
from .dyadics import (
    GridSpec,
    StepFunction,
    _by_cube,
    _level_means,
    _level_sums,
    _morton_decode,
    _require_positive,
    read_cube_values,
)
from .families import _cascade_rows, _random_step_rows, random_step, weight_from_spec
from . import lerner
from .lerner import lerner_decompose
from .normlab import OPERATOR_KINDS, SWEEP_CSV_HEADER, sharpness_sweep
from .positive import TauCoefficients, sawyer_testing
from .shifts import (
    _BLOCK_BYTES,
    GridEnsemble,
    HaarShift,
    _check_separated,
    _hilbert_averages,
    _paraproduct,
    build_petermichl,
    build_random_shift,
)
from .stopping import _stopping_rows

__all__ = ["main", "run"]


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _write_text(out_dir: str, name: str, text: str) -> str:
    path = os.path.join(out_dir, name)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    return name


_ENCODE = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
_SLICE = 256  # list items per encoder call


def _dump_compact(obj, write):
    """Write json.dumps(obj, sort_keys=True, separators=(",", ":")) of an
    object with string keys, piece by piece: one C-encoder call per dict key
    and value and per slice of _SLICE list items.  One call over the whole
    object would hold every small chunk it makes until its final join, 2.6
    MB for the 255 KB manifest of a 4,078-item tau list."""
    if isinstance(obj, dict):
        write("{")
        for i, key in enumerate(sorted(obj)):
            write(("," if i else "") + _ENCODE(key) + ":")
            _dump_compact(obj[key], write)
        write("}")
    elif isinstance(obj, list) and len(obj) > _SLICE:
        write("[")
        for i in range(0, len(obj), _SLICE):
            write(("," if i else "") + _ENCODE(obj[i : i + _SLICE])[1:-1])
        write("]")
    else:
        write(_ENCODE(obj))


def _write_csv(out_dir: str, name: str, header: str, lines) -> str:
    """Write the header and the CSV lines (strings) one per line."""
    return _write_text(out_dir, name, "\n".join([header, *lines]) + "\n")


def _cell_rows(grid: GridSpec, *columns) -> list[str]:
    """One CSV line per cell: cell_index, x_left, then the cell's value in
    each column, floats as _fmt writes them."""
    # left endpoint of every cell along the first axis, shift applied on the torus
    coord = _morton_decode(np.arange(grid.cells), grid.d, grid.N)[0]
    x_left = (coord / (1 << grid.N) + grid.shift[0]) % 1.0
    line = "{}" + ",{:.17g}" * (1 + len(columns))
    return list(map(line.format, range(grid.cells), x_left.tolist(), *(c.tolist() for c in columns)))


def _sample_blocks(count: int, grid: GridSpec) -> list[range]:
    """Consecutive ranges of sample indices 0..count-1, each of as many
    samples as keep four (samples, cells) float arrays within the kernel's
    _BLOCK_BYTES: about the most the row-block cores hold at once (the
    cascade's normals alone are two), 8 samples at 2^10 cells."""
    step = max(1, _BLOCK_BYTES // (32 * grid.cells))
    return [range(i, min(i + step, count)) for i in range(0, count, step)]


def _build_operator(grid: GridSpec, spec: dict, default_seed: int | None = None) -> HaarShift:
    kind = spec["kind"]
    if kind == "petermichl":
        return build_petermichl(grid)
    if kind == "random":
        seed = spec.get("seed", default_seed)
        if seed is None:
            raise ConfigError("params.operator.seed is required for random operators")
        return build_random_shift(
            int(spec.get("m", 1)),
            int(spec.get("n", 1)),
            int(seed),
            grid,
            bool(spec.get("cancellative", True)),
        )
    if kind == "paraproduct":
        coeffs = read_cube_values(
            grid, spec.get("coefficients"), "a", "params.operator.coefficients"
        )
        try:
            return _paraproduct(grid, *coeffs)
        except ValueError as exc:
            raise ConfigError(f"params.operator.coefficients: {exc}") from None
    raise ConfigError(f"unknown operator kind {kind!r}")


def _load_step_function(path: str, grid: GridSpec) -> StepFunction:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            f = StepFunction.from_json(fh.read())
    except FileNotFoundError as exc:
        raise ConfigError(f"input file not found: {path}") from exc
    except ValueError as exc:
        raise ConfigError(f"params.input {path}: {exc}") from exc
    if (f.grid.d, f.grid.N) != (grid.d, grid.N):
        raise ConfigError("input function does not match the configured grid")
    return f


# -- verb implementations ----------------------------------------------------


def _run_characteristics(cfg: ExperimentConfig, out_dir: str):
    grid = GridSpec(cfg.d, cfg.N)
    w = weight_from_spec(grid, cfg.params.get("weight", {"kind": "constant", "value": 1.0}), cfg.seed)
    p_list = [float(p) for p in cfg.params.get("p", [2.0])]
    mode = cfg.params.get("ainfty_mode", "dyadic")
    reports = []
    for p in p_list:
        sigma = dual_weight(w, p)
        reports.append(("ap", p, ap_characteristic(w, p)))
        reports.append(("joint_ap", p, joint_ap(w, sigma, p)))
        reports.append(("ainfty_sigma", p, ainfty_characteristic(sigma, mode)))
    reports.append(("ainfty_w", math.inf, ainfty_characteristic(w, mode)))
    rows = [
        [q, _fmt(p), _fmt(rep.value), str(rep.witness.level), str(rep.witness.zindex)]
        for q, p, rep in reports
    ]
    records = [
        {"quantity": q, "p": p if p < math.inf else "inf", "value": rep.value, "witness": rep.witness.to_dict()}
        for q, p, rep in reports
    ]
    outputs = [
        _write_csv(out_dir, "characteristics.csv", "quantity,p,value,witness_level,witness_zindex", map(",".join, rows))
    ]
    if cfg.out_format == "json":
        outputs.append(
            _write_text(out_dir, "characteristics.json", json.dumps(records, separators=(",", ":")) + "\n")
        )
    return outputs, {"ainfty_mode": mode}


def _run_shift_apply(cfg: ExperimentConfig, out_dir: str):
    grid = GridSpec(cfg.d, cfg.N)
    if "input" not in cfg.params:
        raise ConfigError("params.input (a step-function JSON file) is required")
    f = _load_step_function(cfg.params["input"], grid)
    S = _build_operator(f.grid, cfg.params.get("operator", {"kind": "petermichl"}), cfg.seed)
    sf = S.apply(f)
    snat = S.truncation(f)
    rows = _cell_rows(f.grid, sf.values, snat.values)
    outputs = [_write_csv(out_dir, "shift_apply.csv", "cell_index,x_left,sf,snat", rows)]
    if cfg.out_format == "json":
        outputs.append(
            _write_text(
                out_dir,
                "shift_apply.json",
                json.dumps(
                    {"sf": sf.values.tolist(), "snat": snat.values.tolist()},
                    separators=(",", ":"),
                )
                + "\n",
            )
        )
    return outputs, {}


_DEFAULT_PAIRS = [
    [2 / 32, 5 / 32, 7 / 32, 10 / 32],
    [18 / 32, 21 / 32, 23 / 32, 26 / 32],
    [2 / 64, 5 / 64, 7 / 64, 10 / 64],
    [26 / 64, 29 / 64, 31 / 64, 34 / 64],
    [42 / 128, 48 / 128, 52 / 128, 58 / 128],
]


def _run_hilbert_approx(cfg: ExperimentConfig, out_dir: str):
    if cfg.d != 1:
        raise ConfigError("hilbert-approx requires grid.d = 1")
    grid = GridSpec(1, cfg.N)
    count = cfg.params.get("count", 10_000)
    pairs = cfg.params.get("pairs", _DEFAULT_PAIRS)
    ensemble = GridEnsemble.random_translations(grid, count, cfg.seed)
    M = grid.cells

    def indicator_rows():  # each pair's rows, checked in pair order
        for i, spec in enumerate(pairs):
            f_lo, f_hi, g_lo, g_hi = (int(round(float(v) * M)) for v in spec)
            fv = np.zeros(M)
            fv[f_lo:f_hi] = 1.0
            gv = np.zeros(M)
            gv[g_lo:g_hi] = 1.0
            try:
                _check_separated(fv, gv)
            except ValueError as exc:
                raise ConfigError(
                    f"params.pairs[{i}] rounds to cells [{f_lo}, {f_hi}) and [{g_lo}, {g_hi}) of {M}: {exc}"
                ) from exc
            yield fv, gv

    results = _hilbert_averages(ensemble, indicator_rows())
    avgs = np.array([r.pairing for r in results])
    oras = np.array([r.oracle_pairing for r in results])
    fitted = float(avgs @ oras / (oras @ oras))
    rows = []
    resids = []
    for i, (spec, res) in enumerate(zip(pairs, results)):
        model = fitted * res.oracle_pairing
        # NaN where the fitted model is 0, as pair_constant is for a zero oracle
        resids.append(abs(res.pairing - model) / abs(model) if model != 0.0 else math.nan)
        rows.append(
            [str(i)]
            + [_fmt(v) for v in spec]
            + [_fmt(res.pairing), _fmt(res.oracle_pairing), _fmt(res.constant), _fmt(resids[-1])]
            + [_fmt(res.exact_pairing), _fmt(res.exact_pairing / res.oracle_pairing)]
        )
    max_resid = float(np.max(resids))  # NaN if any residual is
    outputs = [
        _write_csv(
            out_dir,
            "hilbert_approx.csv",
            "pair,f_lo,f_hi,g_lo,g_hi,avg_pairing,oracle_pairing,pair_constant,residual,"
            "exact_pairing,exact_constant",
            map(",".join, rows),
        )
    ]
    constants = {"fitted_constant": fitted, "max_residual": max_resid, "grid_count": count}
    return outputs, constants


def _build_tau(grid: GridSpec, spec, seed) -> TauCoefficients:
    if isinstance(spec, list):
        cubes = read_cube_values(grid, spec, "tau", "params.tau")
        try:
            return TauCoefficients._from_arrays(grid, *cubes)
        except ValueError as exc:
            raise ConfigError(f"params.tau: {exc}") from None
    rng = np.random.default_rng(seed)
    density = float(spec.get("density", 0.5))
    scale = float(spec.get("scale", 1.0))
    level, zindex, tau = [], [], []  # of each drawn cube, coarsest first
    for k in range(grid.N + 1):
        for z in range(1 << (grid.d * k)):
            if rng.random() < density:
                level.append(k)
                zindex.append(z)
                tau.append(scale * float(rng.random()))
    return TauCoefficients._from_arrays(grid, level, zindex, tau)


def _run_sawyer_test(cfg: ExperimentConfig, out_dir: str):
    grid = GridSpec(cfg.d, cfg.N)
    p = float(cfg.params.get("p", 2.0))
    w = weight_from_spec(grid, cfg.params.get("w", {"kind": "constant", "value": 1.0}), cfg.seed)
    sig_seed = None if cfg.seed is None else cfg.seed + 1
    sigma = weight_from_spec(grid, cfg.params.get("sigma", {"kind": "constant", "value": 1.0}), sig_seed)
    tau = _build_tau(grid, cfg.params.get("tau", {"kind": "random"}), None if cfg.seed is None else cfg.seed + 2)
    first = sawyer_testing(tau, w, sigma, p)
    second = sawyer_testing(tau, sigma, w, p / (p - 1.0))
    payload = {
        "T_pprime": first.value,
        "T_p": second.value,
        "proxy": first.value + second.value,
        "witnesses": {
            "T_pprime": first.witness.to_dict(),
            "T_p": second.witness.to_dict(),
        },
    }
    outputs = [
        _write_text(out_dir, "sawyer_test.json", json.dumps(payload, separators=(",", ":"), sort_keys=True) + "\n")
    ]
    return outputs, {"proxy": payload["proxy"]}


def _run_lerner_decompose(cfg: ExperimentConfig, out_dir: str):
    grid = GridSpec(cfg.d, cfg.N)
    if "input" in cfg.params:
        phi = _load_step_function(cfg.params["input"], grid)
    else:
        spec = cfg.params.get("function", {"kind": "random", "spikes": 2})
        if spec["kind"] == "values":
            values = spec["values"]
            if len(values) != grid.cells:
                raise ConfigError(
                    f"params.function.values must list {grid.cells} cell values, got {len(values)}"
                )
            phi = StepFunction(grid, values)
        else:
            phi = random_step(grid, cfg.seed, int(spec.get("spikes", 0)))
    dec = lerner_decompose(phi, grid.root())
    outputs = [_write_text(out_dir, "lerner_decompose.json", dec.to_json() + "\n")]
    rows = _cell_rows(grid, dec.residual.values)
    outputs.append(_write_csv(out_dir, "lerner_residual.csv", "cell_index,x_left,residual", rows))
    return outputs, {"c_lerner": dec.empirical_constant(), "generations": len(dec.generations)}


def _sample_weights(grid: GridSpec, spec: dict, seeds) -> np.ndarray:
    """weight_from_spec's values for each seed, one row each, checked to be
    finite and positive."""
    if spec.get("kind") == "cascade":
        rows = _cascade_rows(grid, seeds, float(spec.get("volatility", 0.5)))
    else:
        rows = np.array([weight_from_spec(grid, spec, s).values for s in seeds])
    return _require_positive(rows)


def _run_stopping_audit(cfg: ExperimentConfig, out_dir: str):
    grid = GridSpec(cfg.d, cfg.N)
    count = int(cfg.params.get("count", 50))
    spec = cfg.params.get("weight", {"kind": "cascade", "volatility": 0.6})
    rows = []
    worst_pack = 0.0
    worst_carleson = 0.0
    # the first column of the level-k cubes in a table of every cube's value, coarsest first
    first = np.cumsum([0] + [1 << (grid.d * k) for k in range(grid.N)])
    for block in _sample_blocks(count, grid):
        weights = _sample_weights(grid, spec, [cfg.seed + i for i in block])
        sums = _level_sums(grid, weights)
        ainfs = _ainfty_rows(grid, sums)[0].tolist()
        # w.integral(S) for every cube S: its cells added in order, as StepFunction.integral does
        integrals = np.concatenate(
            [_by_cube(grid, weights, k).sum(axis=-1) * grid.cell_volume for k in range(grid.N + 1)],
            axis=1,
        )
        families = _stopping_rows(grid, _level_means(grid, sums))
        for r, (i, ainf, (level, zindex, _, margins)) in enumerate(zip(block, ainfs, families)):
            pack = float(margins.max())
            # added one member at a time in (level, Z-index) order
            total = sum(integrals[r, first[level] + zindex].tolist())
            carleson = total / (ainf * float(integrals[r, 0]))
            worst_pack = max(worst_pack, pack)
            worst_carleson = max(worst_carleson, carleson)
            rows.append(
                [str(i), _fmt(pack), _fmt(carleson), _fmt(ainf), str(level.size), str(level.max())]
            )
    outputs = [
        _write_csv(
            out_dir,
            "stopping_audit.csv",
            "sample,packing_max,carleson_ratio,ainfty,family_size,depth",
            map(",".join, rows),
        )
    ]
    return outputs, {"max_packing": worst_pack, "max_carleson_ratio": worst_carleson}


def _run_sharpness_sweep(cfg: ExperimentConfig, out_dir: str):
    operators = tuple(cfg.params.get("operators", OPERATOR_KINDS))
    p_list = tuple(float(p) for p in cfg.params.get("p", [1.5, 2.0, 3.0]))
    N_list = tuple(int(n) for n in sweep_levels(cfg.params, cfg.N))
    budget = int(cfg.params.get("budget", 6))
    random_starts = int(cfg.params.get("random_starts", 16))
    rows = sharpness_sweep(
        operator_kinds=operators,
        p_list=p_list,
        N_list=N_list,
        seed=cfg.seed,
        budget=budget,
        random_starts=random_starts,
    )
    csv_rows = [[_fmt(v) if isinstance(v, float) else str(v) for v in astuple(r)] for r in rows]
    outputs = [_write_csv(out_dir, "sweep.csv", SWEEP_CSV_HEADER, map(",".join, csv_rows))]
    mirror = [asdict(r) for r in rows]
    outputs.append(
        _write_text(out_dir, "sweep.json", json.dumps(mirror, separators=(",", ":")) + "\n")
    )
    by_N = {}
    for r in rows:
        by_N[r.N] = max(by_N.get(r.N, 0.0), r.ratio)
    constants = {"ratio_max": max(by_N.values()), "ratio_max_by_N": {str(k): v for k, v in sorted(by_N.items())}}
    return outputs, constants


def _run_invariant_suite(cfg: ExperimentConfig, out_dir: str):
    grid = GridSpec(cfg.d, cfg.N)
    samples = int(cfg.params.get("samples", 100))
    exponents = (1.5, 2.0, 3.0)  # sample i runs at exponents[i % 3]
    rows = []
    constants = {}

    worst_ap = math.inf
    worst_dual = 0.0
    ainfty_over_ap = 0.0
    for block in _sample_blocks(samples, grid):
        weights = _cascade_rows(grid, [cfg.seed + i for i in block], 0.6)
        ap, dual_ap, ainf = np.zeros((3, len(block)))  # ainf is read at p = 2 only
        for j, p in enumerate(exponents):
            at_p = slice((j - block.start) % 3, None, 3)  # the block's rows at exponent p
            w = weights[at_p]
            pprime = p / (p - 1.0)
            ap[at_p] = _ap_rows(grid, w, p)[0]
            dual_ap[at_p] = _ap_rows(grid, w ** (1.0 - pprime), pprime)[0]
            if p == 2.0:
                ainf[at_p] = _ainfty_rows(grid, _level_sums(grid, w))[0]
        for i, ap_i, dual_i, ainf_i in zip(block, ap.tolist(), dual_ap.tolist(), ainf.tolist()):
            p = exponents[i % 3]
            worst_ap = min(worst_ap, ap_i)
            pprime = p / (p - 1.0)
            rel = abs(dual_i - ap_i ** (pprime - 1.0)) / ap_i ** (pprime - 1.0)
            worst_dual = max(worst_dual, rel)
            if p == 2.0:
                ainfty_over_ap = max(ainfty_over_ap, ainf_i / ap_i)
    rows.append(["ap_at_least_one", str(samples), _fmt(worst_ap), _fmt(1.0), str(worst_ap >= 1.0)])
    rows.append(["dual_identity_rel_err", str(samples), _fmt(worst_dual), _fmt(1e-9), str(worst_dual <= 1e-9)])
    rows.append(["ainfty_over_ap_p2", str(samples), _fmt(ainfty_over_ap), _fmt(1.0), str(ainfty_over_ap <= 1.0 + 1e-12)])
    constants["ainfty_over_ap_p2"] = ainfty_over_ap

    sub_viol = 0.0
    for block in _sample_blocks(samples, grid):
        f = _random_step_rows(grid, [cfg.seed + 1000 + 2 * i for i in block])
        g = _random_step_rows(grid, [cfg.seed + 1000 + 2 * i + 1 for i in block])
        excess = _maximal_rows(grid, f + g) - (_maximal_rows(grid, f) + _maximal_rows(grid, g))
        sub_viol = max(sub_viol, float(excess.max()))
    rows.append(["maximal_sublinear_violation", str(samples), _fmt(sub_viol), _fmt(0.0), str(sub_viol <= 1e-12)])

    pack = 0.0
    for block in _sample_blocks(samples, grid):
        w = _cascade_rows(grid, [cfg.seed + 2000 + i for i in block], 0.7)
        for *_, margins in _stopping_rows(grid, _level_means(grid, _level_sums(grid, w))):
            pack = max(pack, float(margins.max()))
    rows.append(["stopping_packing_max", str(samples), _fmt(pack), _fmt(0.25), str(pack < 0.25)])
    constants["stopping_packing_max"] = pack

    failures = 0
    root = grid.root()
    for block in _sample_blocks(samples, grid):
        phis = _random_step_rows(grid, [cfg.seed + 3000 + i for i in block], spikes=1)
        for gens in lerner._generation_rows(grid, root, phis):
            try:
                lerner._assert_certificates(grid, root, gens)  # read from the module at call time, as tests substitute it
            except AssertionError:
                failures += 1
    rows.append(["lerner_certificate_failures", str(samples), str(failures), "0", str(failures == 0)])

    outputs = [
        _write_csv(out_dir, "invariants.csv", "invariant,samples,statistic,threshold,pass", map(",".join, rows))
    ]
    return outputs, constants


_VERB_RUNNERS = {
    "characteristics": _run_characteristics,
    "shift-apply": _run_shift_apply,
    "hilbert-approx": _run_hilbert_approx,
    "sawyer-test": _run_sawyer_test,
    "lerner-decompose": _run_lerner_decompose,
    "stopping-audit": _run_stopping_audit,
    "sharpness-sweep": _run_sharpness_sweep,
    "invariant-suite": _run_invariant_suite,
}


def run(cfg: ExperimentConfig, out_dir: str) -> dict:
    """Execute a validated config, write artifacts, and return the manifest."""
    os.makedirs(out_dir, exist_ok=True)
    start = time.perf_counter()
    outputs, constants = _VERB_RUNNERS[cfg.verb](cfg, out_dir)
    manifest = {
        "verb": cfg.verb,
        "config": cfg.to_dict(),
        "version": __version__,
        "wall_time_s": time.perf_counter() - start,
        "constants": constants,
        "outputs": outputs,
    }
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8", newline="\n") as fh:
        _dump_compact(manifest, fh.write)
        fh.write("\n")
    return manifest


_EXIT_CODES = """\
exit codes:
  0  success: result files and manifest.json written
  1  internal failure, reported with a Python traceback: a certificate
     assertion (Lerner decomposition, stopping family) or another bug
  2  configuration error: unreadable or invalid config file, unknown field,
     bad parameter value, or bad command-line arguments
"""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="czlab",
        description="Dyadic weighted-norm laboratory: batch experiment runner.",
        epilog=_EXIT_CODES,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("verb", choices=sorted(_VERB_RUNNERS))
    parser.add_argument("--config", required=True, help="path to a JSON config file")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config, args.verb)
        if args.seed is not None:
            cfg = ExperimentConfig(
                cfg.verb, cfg.d, cfg.N, args.seed, cfg.params, cfg.out_format, cfg.out_path
            )
        out_dir = args.out or cfg.out_path or "czlab-out"
        run(cfg, out_dir)
    except ValueError as exc:  # ConfigError is a ValueError
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
