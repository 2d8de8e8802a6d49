import hashlib
import io
import json

import numpy as np
import pytest

from czlab import cli, normlab, shifts
from czlab.cli import _VERB_RUNNERS, _build_operator, _build_tau, _dump_compact, _sample_blocks, main, run
from czlab.config import VERBS, ConfigError, parse_config
from czlab.dyadics import GridSpec, StepFunction
from czlab.positive import TauCoefficients


def write_config(tmp_path, obj, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def read(tmp_path, name):
    return (tmp_path / name).read_text()


def manifest_of(tmp_path):
    return json.loads(read(tmp_path, "manifest.json"))


class TestConfigParsing:
    def base(self):
        return {
            "verb": "characteristics",
            "grid": {"d": 1, "N": 3},
            "params": {"weight": {"kind": "constant", "value": 1.0}},
            "output": {"format": "csv"},
        }

    def test_round_trip(self):
        cfg = parse_config(self.base())
        again = parse_config(json.loads(json.dumps(cfg.to_dict())))
        assert again == cfg

    def test_every_verb_has_one_runner(self):
        assert len(VERBS) == len(set(VERBS))
        assert set(_VERB_RUNNERS) == set(VERBS)

    def test_unknown_top_level_field_named(self):
        obj = self.base()
        obj["extra"] = 1
        with pytest.raises(ConfigError, match="extra"):
            parse_config(obj)

    def test_unknown_param_named(self):
        obj = self.base()
        obj["params"]["bogus"] = 2
        with pytest.raises(ConfigError, match="bogus"):
            parse_config(obj)

    def test_verb_mismatch(self):
        with pytest.raises(ConfigError, match="verb"):
            parse_config(self.base(), verb="sharpness-sweep")

    def test_seed_required_for_randomized(self):
        obj = {
            "verb": "sharpness-sweep",
            "grid": {"d": 1, "N": 4},
            "params": {},
            "output": {"format": "csv"},
        }
        with pytest.raises(ConfigError, match="seed"):
            parse_config(obj)
        obj["seed"] = 1
        parse_config(obj)

    def test_random_weight_requires_seed(self):
        obj = self.base()
        obj["params"]["weight"] = {"kind": "cascade", "volatility": 0.5}
        with pytest.raises(ConfigError, match="seed"):
            parse_config(obj)

    @pytest.mark.parametrize("key", ["d", "N"])
    @pytest.mark.parametrize("value", [4.5, 3.0, True, "3", None])
    def test_non_integer_grid_size_named(self, key, value):
        # int() once ran "N": 4.5 at N = 4, true at 1 and "5" at 5
        obj = self.base()
        obj["grid"][key] = value
        with pytest.raises(ConfigError, match=f"grid.{key} must be an integer"):
            parse_config(obj)

    def test_missing_grid_size_named(self):
        obj = self.base()
        del obj["grid"]["N"]
        with pytest.raises(ConfigError, match="grid.N must be an integer"):
            parse_config(obj)

    @pytest.mark.parametrize("d,N,most", [(1, 12, None), (1, 13, 12), (1, 14, 12), (2, 8, None), (2, 9, 8)])
    def test_centered_ainfty_work_is_bounded(self, d, N, most):
        # checked by parse_config alone, before any window is evaluated
        obj = self.base()
        obj["grid"] = {"d": d, "N": N}
        obj["params"]["ainfty_mode"] = "centered"
        if most is None:
            parse_config(obj)
        else:
            want = f"params.ainfty_mode 'centered' needs grid.N <= {most} at grid.d = {d} (at most 2^25 window terms), got grid.N = {N}"
            with pytest.raises(ConfigError) as err:
                parse_config(obj)
            assert str(err.value) == want

    def test_bad_weight_kind(self):
        obj = self.base()
        obj["params"]["weight"] = {"kind": "exotic"}
        with pytest.raises(ConfigError, match="kind"):
            parse_config(obj)


class TestVerbs:
    def test_characteristics_unit_weight(self, tmp_path):
        cfg = parse_config(
            {
                "verb": "characteristics",
                "grid": {"d": 1, "N": 3},
                "params": {"weight": {"kind": "constant", "value": 1.0}, "p": [2.0]},
                "output": {"format": "csv"},
            }
        )
        run(cfg, str(tmp_path))
        lines = read(tmp_path, "characteristics.csv").strip().split("\n")
        assert lines[0] == "quantity,p,value,witness_level,witness_zindex"
        ap_row = [l for l in lines if l.startswith("ap,")][0]
        assert ap_row.split(",")[2] == "1"

    def test_shift_apply(self, tmp_path):
        g = GridSpec(1, 4)
        f = StepFunction(g, np.random.default_rng(0).standard_normal(g.cells))
        fpath = tmp_path / "f.json"
        fpath.write_text(f.to_json())
        cfg = parse_config(
            {
                "verb": "shift-apply",
                "grid": {"d": 1, "N": 4},
                "params": {"input": str(fpath), "operator": {"kind": "petermichl"}},
                "output": {"format": "csv"},
            }
        )
        run(cfg, str(tmp_path))
        lines = read(tmp_path, "shift_apply.csv").strip().split("\n")
        assert lines[0] == "cell_index,x_left,sf,snat"
        assert len(lines) == g.cells + 1
        # snat dominates |sf| row by row
        for line in lines[1:]:
            _, _, sf, snat = line.split(",")
            assert float(snat) >= abs(float(sf)) - 1e-12

    def test_sawyer_test_json(self, tmp_path):
        cfg = parse_config(
            {
                "verb": "sawyer-test",
                "grid": {"d": 1, "N": 2},
                "seed": 5,
                "params": {
                    "tau": {"kind": "random", "density": 0.7},
                    "w": {"kind": "cascade", "volatility": 0.5},
                    "sigma": {"kind": "cascade", "volatility": 0.5},
                    "p": 2.0,
                },
                "output": {"format": "json"},
            }
        )
        run(cfg, str(tmp_path))
        payload = json.loads(read(tmp_path, "sawyer_test.json"))
        assert set(payload) == {"T_pprime", "T_p", "proxy", "witnesses"}
        assert payload["proxy"] == pytest.approx(payload["T_pprime"] + payload["T_p"])

    def test_lerner_decompose_outputs(self, tmp_path):
        cfg = parse_config(
            {
                "verb": "lerner-decompose",
                "grid": {"d": 1, "N": 5},
                "seed": 3,
                "params": {"function": {"kind": "random", "spikes": 3}},
                "output": {"format": "csv"},
            }
        )
        manifest = run(cfg, str(tmp_path))
        obj = json.loads(read(tmp_path, "lerner_decompose.json"))
        assert set(obj) == {"q0", "median", "generations"}
        assert "c_lerner" in manifest["constants"]
        lines = read(tmp_path, "lerner_residual.csv").strip().split("\n")
        assert lines[0] == "cell_index,x_left,residual"

    def test_stopping_audit(self, tmp_path):
        cfg = parse_config(
            {
                "verb": "stopping-audit",
                "grid": {"d": 1, "N": 6},
                "seed": 11,
                "params": {"count": 5},
                "output": {"format": "csv"},
            }
        )
        manifest = run(cfg, str(tmp_path))
        lines = read(tmp_path, "stopping_audit.csv").strip().split("\n")
        assert lines[0] == "sample,packing_max,carleson_ratio,ainfty,family_size,depth"
        assert len(lines) == 6
        assert manifest["constants"]["max_packing"] < 0.25

    def test_hilbert_approx_small(self, tmp_path):
        cfg = parse_config(
            {
                "verb": "hilbert-approx",
                "grid": {"d": 1, "N": 6},
                "seed": 2,
                "params": {"count": 200},
                "output": {"format": "csv"},
            }
        )
        manifest = run(cfg, str(tmp_path))
        lines = read(tmp_path, "hilbert_approx.csv").strip().split("\n")
        assert lines[0].startswith("pair,f_lo")
        assert len(lines) == 6
        assert "fitted_constant" in manifest["constants"]

    def test_sweep_schema(self, tmp_path):
        cfg = parse_config(
            {
                "verb": "sharpness-sweep",
                "grid": {"d": 1, "N": 4},
                "seed": 9,
                "params": {"operators": ["petermichl"], "p": [2.0], "N": [4], "budget": 1, "random_starts": 2},
                "output": {"format": "csv"},
            }
        )
        run(cfg, str(tmp_path))
        lines = read(tmp_path, "sweep.csv").strip().split("\n")
        assert lines[0] == "family,param,p,N,joint_ap,ainfty_w,ainfty_sigma,norm,rhs,ratio,buckley_rhs"
        mirror = json.loads(read(tmp_path, "sweep.json"))
        assert len(mirror) == len(lines) - 1

    def test_sweep_default_levels_run_once(self, tmp_path):
        # without params.N the sweep runs at min(grid.N, 8) and grid.N, once each
        cfg = parse_config(
            {
                "verb": "sharpness-sweep",
                "grid": {"d": 1, "N": 4},
                "seed": 9,
                "params": {"operators": ["petermichl"], "p": [2.0], "budget": 1, "random_starts": 2},
                "output": {"format": "csv"},
            }
        )
        run(cfg, str(tmp_path))
        rows = read(tmp_path, "sweep.csv").strip().split("\n")[1:]
        assert len(rows) == len(set(rows)) == 9

    def test_sweep_files_do_not_depend_on_the_worker_count(self, tmp_path, monkeypatch):
        cfg = parse_config(
            {
                "verb": "sharpness-sweep",
                "grid": {"d": 1, "N": 5},
                "seed": 13,
                "params": {"operators": ["petermichl", "random2b"], "p": [1.5, 2.0], "N": [4, 5],
                           "budget": 1, "random_starts": 2},
                "output": {"format": "json"},
            }
        )
        for cpus in (1, 2):
            monkeypatch.setattr(normlab, "_usable_cpus", lambda: cpus)
            run(cfg, str(tmp_path / f"cpus{cpus}"))
        for name in ("sweep.csv", "sweep.json"):
            assert (tmp_path / "cpus1" / name).read_bytes() == (tmp_path / "cpus2" / name).read_bytes()

    def test_invariant_suite(self, tmp_path):
        cfg = parse_config(
            {
                "verb": "invariant-suite",
                "grid": {"d": 1, "N": 4},
                "seed": 1,
                "params": {"samples": 5},
                "output": {"format": "csv"},
            }
        )
        run(cfg, str(tmp_path))
        lines = read(tmp_path, "invariants.csv").strip().split("\n")
        assert lines[0] == "invariant,samples,statistic,threshold,pass"
        assert all(line.rsplit(",", 1)[1] == "True" for line in lines[1:])


class TestDeterminism:
    def test_rerun_byte_identical(self, tmp_path):
        obj = {
            "verb": "stopping-audit",
            "grid": {"d": 1, "N": 5},
            "seed": 77,
            "params": {"count": 4},
            "output": {"format": "csv"},
        }
        cfg = parse_config(obj)
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        man_a = run(cfg, str(a_dir))
        man_b = run(cfg, str(b_dir))
        assert (a_dir / "stopping_audit.csv").read_bytes() == (
            b_dir / "stopping_audit.csv"
        ).read_bytes()
        man_a.pop("wall_time_s")
        man_b.pop("wall_time_s")
        assert man_a == man_b

    # config, result file, its exact text (or "sha256:" and its digest): the
    # random tau pins _build_tau's draw order, the stopping audit its
    # packing_max and carleson_ratio sums
    PINNED = {
        "sawyer_random_tau": (
            {
                "verb": "sawyer-test",
                "grid": {"d": 1, "N": 5},
                "seed": 5,
                "params": {
                    "tau": {"kind": "random", "density": 0.6, "scale": 2.0},
                    "w": {"kind": "cascade", "volatility": 0.5},
                    "sigma": {"kind": "cascade", "volatility": 0.6},
                    "p": 2.5,
                },
                "output": {"format": "json"},
            },
            "sawyer_test.json",
            '{"T_p":11.566252651046465,"T_pprime":10.807518556750825,"proxy":22.37377120779729,'
            '"witnesses":{"T_p":{"coords":[3],"level":3},"T_pprime":{"coords":[3],"level":3}}}\n',
        ),
        "sawyer_tau_list": (
            {
                "verb": "sawyer-test",
                "grid": {"d": 2, "N": 3},
                "seed": 9,
                "params": {
                    "tau": [
                        {"cube": {"level": 0, "coords": [0, 0]}, "tau": 0.5},
                        {"cube": {"level": 1, "coords": [1, 0]}, "tau": 2.0},
                        {"cube": {"level": 2, "coords": [3, 1]}, "tau": 0.0},
                        {"cube": {"level": 3, "coords": [2, 5]}, "tau": 1.25},
                    ],
                    "w": {"kind": "cascade", "volatility": 0.7},
                    "p": 1.5,
                },
                "output": {"format": "json"},
            },
            "sawyer_test.json",
            '{"T_p":2.4428174877021607,"T_pprime":2.4428174877021607,"proxy":4.885634975404321,'
            '"witnesses":{"T_p":{"coords":[1,0],"level":1},"T_pprime":{"coords":[1,0],"level":1}}}\n',
        ),
        "stopping_audit": (
            {"verb": "stopping-audit", "grid": {"d": 1, "N": 8}, "seed": 31, "params": {"count": 4}},
            "stopping_audit.csv",
            "sample,packing_max,carleson_ratio,ainfty,family_size,depth\n"
            "0,0.171875,0.74707019892445359,2.6379743200000001,6,6\n"
            "1,0.171875,0.74707019892445359,2.6379743199999988,6,6\n"
            "2,0.171875,0.7470701989244537,2.6379743199999992,6,6\n"
            "3,0.171875,0.74707019892445359,2.6379743199999992,6,6\n",
        ),
        "invariant_suite": (
            {"verb": "invariant-suite", "grid": {"d": 1, "N": 6}, "seed": 2, "params": {"samples": 6}},
            "invariants.csv",
            "invariant,samples,statistic,threshold,pass\n"
            "ap_at_least_one,6,7.7334843808784957,1,True\n"
            "dual_identity_rel_err,6,1.6969397373861484e-16,1.0000000000000001e-09,True\n"
            "ainfty_over_ap_p2,6,0.15744388034461709,1,True\n"
            "maximal_sublinear_violation,6,4.4408920985006262e-16,0,True\n"
            "stopping_packing_max,6,0.171875,0.25,True\n"
            "lerner_certificate_failures,6,0,0,True\n",
        ),
        # sample counts that split unevenly into the runners' row blocks
        "invariant_suite_d1_n10": (
            {"verb": "invariant-suite", "grid": {"d": 1, "N": 10}, "seed": 4, "params": {"samples": 37}},
            "invariants.csv",
            "invariant,samples,statistic,threshold,pass\n"
            "ap_at_least_one,37,30.243033780422074,1,True\n"
            "dual_identity_rel_err,37,3.5742962328348077e-16,1.0000000000000001e-09,True\n"
            "ainfty_over_ap_p2,37,0.034267825868055296,1,True\n"
            "maximal_sublinear_violation,37,4.4408920985006262e-16,0,True\n"
            "stopping_packing_max,37,0.18359375,0.25,True\n"
            "lerner_certificate_failures,37,0,0,True\n",
        ),
        "invariant_suite_d2_n5": (
            {"verb": "invariant-suite", "grid": {"d": 2, "N": 5}, "seed": 8, "params": {"samples": 20}},
            "invariants.csv",
            "invariant,samples,statistic,threshold,pass\n"
            "ap_at_least_one,20,2.0110990417328622,1,True\n"
            "dual_identity_rel_err,20,1.5815695050078238e-16,1.0000000000000001e-09,True\n"
            "ainfty_over_ap_p2,20,0.61454598758507495,1,True\n"
            "maximal_sublinear_violation,20,4.4408920985006262e-16,0,True\n"
            "stopping_packing_max,20,0.0693359375,0.25,True\n"
            "lerner_certificate_failures,20,0,0,True\n",
        ),
        "stopping_audit_n12": (
            {"verb": "stopping-audit", "grid": {"d": 1, "N": 12}, "seed": 13, "params": {"count": 9}},
            "stopping_audit.csv",
            "sample,packing_max,carleson_ratio,ainfty,family_size,depth\n"
            "0,0.208740234375,0.85779932500522704,3.3004078622499993,123,12\n"
            "1,0.208740234375,0.85779932500522671,3.3004078622500002,123,12\n"
            "2,0.208740234375,0.85779932500522649,3.3004078622499997,123,12\n"
            "3,0.208740234375,0.85779932500522715,3.3004078622500019,123,12\n"
            "4,0.208740234375,0.85779932500522682,3.3004078622499993,123,12\n"
            "5,0.208740234375,0.85779932500522693,3.3004078622499997,123,12\n"
            "6,0.208740234375,0.85779932500522682,3.3004078622499993,123,12\n"
            "7,0.208740234375,0.8577993250052266,3.3004078622500002,123,12\n"
            "8,0.208740234375,0.85779932500522649,3.3004078622500006,123,12\n",
        ),
        # the benchmark's Lerner config, and a d = 2 one with two generations
        "lerner_d1_n12": (
            {"verb": "lerner-decompose", "grid": {"d": 1, "N": 12}, "seed": 31339, "params": {}},
            "lerner_decompose.json",
            '{"q0":{"level":0,"coords":[0]},"median":0.003264044336727647,"generations":[[{"cube":{"level":11,"coords":[43]},"omega_parent":2.3323589424307545},'
            '{"cube":{"level":11,"coords":[44]},"omega_parent":2.0399979737874254},'
            '{"cube":{"level":11,"coords":[190]},"omega_parent":2.1364185159999627},'
            '{"cube":{"level":11,"coords":[272]},"omega_parent":2.446426772792732},'
            '{"cube":{"level":11,"coords":[441]},"omega_parent":5.856295740723571},'
            '{"cube":{"level":11,"coords":[719]},"omega_parent":1.8544216951727617},'
            '{"cube":{"level":11,"coords":[1463]},"omega_parent":2.669451817423899},'
            '{"cube":{"level":11,"coords":[1533]},"omega_parent":2.4869726383334276},'
            '{"cube":{"level":11,"coords":[1589]},"omega_parent":2.0235199167571727},'
            '{"cube":{"level":11,"coords":[1713]},"omega_parent":1.7738580220344573},'
            '{"cube":{"level":11,"coords":[1876]},"omega_parent":1.6140812979200982}]]}\n',
        ),
        "lerner_d1_n12_residual": (
            {"verb": "lerner-decompose", "grid": {"d": 1, "N": 12}, "seed": 31339, "params": {}},
            "lerner_residual.csv",
            "sha256:a97bbfed0eed35955448f2b87ac529aeae97c3dc08f961c1ac581128d57f1ff4",
        ),
        "lerner_d2_n5": (
            {"verb": "lerner-decompose", "grid": {"d": 2, "N": 5}, "seed": 7, "params": {"function": {"kind": "random", "spikes": 32}}},
            "lerner_decompose.json",
            '{"q0":{"level":0,"coords":[0,0]},"median":-0.0708653281733429,"generations":[[{"cube":{"level":3,"coords":[5,5]},"omega_parent":2.3242910891123074},'
            '{"cube":{"level":4,"coords":[5,1]},"omega_parent":1.6247173807306572},'
            '{"cube":{"level":4,"coords":[4,3]},"omega_parent":3.6172026576394583},'
            '{"cube":{"level":4,"coords":[5,3]},"omega_parent":3.6172026576394583},'
            '{"cube":{"level":4,"coords":[1,5]},"omega_parent":1.5939018154482603},'
            '{"cube":{"level":4,"coords":[12,1]},"omega_parent":1.580649407984278},'
            '{"cube":{"level":4,"coords":[9,5]},"omega_parent":1.4226198833726875},'
            '{"cube":{"level":4,"coords":[11,6]},"omega_parent":1.3939141278539782},'
            '{"cube":{"level":4,"coords":[15,5]},"omega_parent":1.6928248675618023},'
            '{"cube":{"level":4,"coords":[0,9]},"omega_parent":1.494271540789644},'
            '{"cube":{"level":4,"coords":[0,11]},"omega_parent":1.0625275224694923},'
            '{"cube":{"level":4,"coords":[3,10]},"omega_parent":8.045594411394235},'
            '{"cube":{"level":4,"coords":[3,11]},"omega_parent":8.045594411394235},'
            '{"cube":{"level":4,"coords":[4,8]},"omega_parent":2.0031782287811097},'
            '{"cube":{"level":4,"coords":[7,9]},"omega_parent":1.3843150697869189},'
            '{"cube":{"level":4,"coords":[1,12]},"omega_parent":1.3094315267352976},'
            '{"cube":{"level":4,"coords":[6,13]},"omega_parent":2.1446813935379385},'
            '{"cube":{"level":4,"coords":[6,14]},"omega_parent":1.6971626645609477},'
            '{"cube":{"level":4,"coords":[10,8]},"omega_parent":1.8319063721464448},'
            '{"cube":{"level":4,"coords":[12,8]},"omega_parent":1.4494389404217682},'
            '{"cube":{"level":4,"coords":[15,10]},"omega_parent":1.4643679584407763},'
            '{"cube":{"level":4,"coords":[11,12]},"omega_parent":1.5850898350999052}],[{"cube":{"level":4,"coords":[11,11]},"omega_parent":4.491713277652949}]]}\n',
        ),
        "hilbert_approx_n6": (
            {
                "verb": "hilbert-approx",
                "grid": {"d": 1, "N": 6},
                "seed": 3,
                "params": {"count": 64, "pairs": [[0.0625, 0.1875, 0.3125, 0.4375], [0.5, 0.75, 0.0, 0.375]]},
                "output": {"format": "csv"},
            },
            "hilbert_approx.csv",
            "pair,f_lo,f_hi,g_lo,g_hi,avg_pairing,oracle_pairing,pair_constant,residual,exact_pairing,exact_constant\n"
            "0,0.0625,0.1875,0.3125,0.4375,-0.011810302734375,0.065351962900211336,-0.18071840860248756,"
            "1.5147796601659902,-0.01171875,-0.17931749070634426\n"
            "1,0.5,0.75,0,0.375,0.01519775390625,-0.23859810977940693,-0.063696036487048885,"
            "0.11364039651787616,0.0142822265625,-0.059858925855298957\n",
        ),
        # the benchmark's hilbert-approx config: criterion 6's five pairs
        "hilbert_approx_n12": (
            {
                "verb": "hilbert-approx",
                "grid": {"d": 1, "N": 12},
                "seed": 424242,
                "params": {
                    "count": 10_000,
                    "pairs": [
                        [2 / 32, 5 / 32, 7 / 32, 10 / 32],
                        [18 / 32, 21 / 32, 23 / 32, 26 / 32],
                        [2 / 64, 5 / 64, 7 / 64, 10 / 64],
                        [26 / 64, 29 / 64, 31 / 64, 34 / 64],
                        [42 / 128, 48 / 128, 52 / 128, 58 / 128],
                    ],
                },
                "output": {"format": "csv"},
            },
            "hilbert_approx.csv",
            "sha256:3bc874a8a95d2f26438140d284bea9c9c1277d413f99f33700bb7e7c6a7dbaa2",
        ),
        # the benchmark's centred characteristics config, and a d = 2 one
        # whose witnesses sit below the root
        "characteristics_centered_d1_n7": (
            {
                "verb": "characteristics",
                "grid": {"d": 1, "N": 7},
                "seed": 31345,
                "params": {"weight": {"kind": "cascade", "volatility": 0.6, "seed": 31345}, "p": [2.0], "ainfty_mode": "centered"},
            },
            "characteristics.csv",
            "quantity,p,value,witness_level,witness_zindex\n"
            "ap,2,22.737367544323195,0,0\n"
            "joint_ap,2,4.7683715820312482,0,0\n"
            "ainfty_sigma,2,2.2246755113521672,0,0\n"
            "ainfty_w,inf,2.1295034247848679,0,0\n",
        ),
        "characteristics_centered_d2_n3": (
            {
                "verb": "characteristics",
                "grid": {"d": 2, "N": 3},
                "params": {"weight": {"kind": "two_value", "value": 0.02, "level": 3}, "p": [1.5, 3.0], "ainfty_mode": "centered"},
            },
            "characteristics.csv",
            "quantity,p,value,witness_level,witness_zindex\n"
            "ap,1.5,18.886321604536974,2,0\n"
            "joint_ap,1.5,7.0919378417523014,2,0\n"
            "ainfty_sigma,1.5,1.8309738689337096,0,0\n"
            "ap,3,4.7860585742344126,2,0\n"
            "joint_ap,3,1.6852306005352873,2,0\n"
            "ainfty_sigma,3,1.0638231183598106,2,0\n"
            "ainfty_w,inf,1.0985099337748343,2,0\n",
        ),
        "lerner_d2_n5_residual": (
            {"verb": "lerner-decompose", "grid": {"d": 2, "N": 5}, "seed": 7, "params": {"function": {"kind": "random", "spikes": 32}}},
            "lerner_residual.csv",
            "sha256:0ceadcc7f4831ea97990554244345bcb96761b7fde1dc0c48c4e51c36e1bc4d1",
        ),
    }

    @pytest.mark.parametrize("case", sorted(PINNED))
    def test_pinned_result_bytes(self, tmp_path, case):
        obj, name, text = self.PINNED[case]
        run(parse_config(obj), str(tmp_path))
        got = (tmp_path / name).read_bytes()
        if text.startswith("sha256:"):
            assert "sha256:" + hashlib.sha256(got).hexdigest() == text
        else:
            assert got == text.encode()

    def test_hilbert_approx_builds_no_shift(self, tmp_path, monkeypatch):
        # the ensemble's offset plan is written in closed form
        built = []
        build, init = shifts.build_petermichl, shifts.HaarShift.__init__
        for module in (shifts, cli):
            monkeypatch.setattr(module, "build_petermichl", lambda grid: built.append(grid) or build(grid))
        monkeypatch.setattr(shifts.HaarShift, "__init__", lambda S, *a, **k: built.append(S) or init(S, *a, **k))
        obj = self.PINNED["hilbert_approx_n6"][0]
        run(parse_config(obj), str(tmp_path))
        assert built == [] and len(obj["params"]["pairs"]) == 2
        assert (tmp_path / "hilbert_approx.csv").read_bytes() == self.PINNED["hilbert_approx_n6"][2].encode()

    def test_hilbert_approx_chunks_keep_the_per_pair_bytes(self, tmp_path, monkeypatch):
        # at N = 14 the pass takes two rows a chunk, so criterion 6's five
        # pairs span three chunks; one pair a chunk writes the same CSV
        obj = {**self.PINNED["hilbert_approx_n12"][0], "grid": {"d": 1, "N": 14}}
        obj["params"] = {**obj["params"], "count": 500}
        calls = []
        pairings = shifts._offset_pairings
        monkeypatch.setattr(shifts, "_offset_pairings", lambda grid, F, G: calls.append(len(F)) or pairings(grid, F, G))
        run(parse_config(obj), str(tmp_path / "chunked"))
        monkeypatch.setattr(shifts, "_BLOCK_BYTES", 1)
        run(parse_config(obj), str(tmp_path / "per_pair"))
        assert calls == [2, 2, 1] + [1] * 5
        chunked, per_pair = ((tmp_path / d / "hilbert_approx.csv").read_bytes() for d in ("chunked", "per_pair"))
        assert chunked == per_pair and chunked.count(b"\n") == 6

    @pytest.mark.parametrize("case", ["invariant_suite_d1_n10", "invariant_suite_d2_n5", "stopping_audit_n12"])
    def test_block_pins_cross_block_boundaries(self, case):
        obj = self.PINNED[case][0]
        count = obj["params"].get("samples", obj["params"].get("count"))
        blocks = _sample_blocks(count, GridSpec(obj["grid"]["d"], obj["grid"]["N"]))
        assert [i for b in blocks for i in b] == list(range(count))
        assert len(blocks) > 1 and len(blocks[-1]) < len(blocks[0])


class TestMainEntry:
    def test_exit_zero(self, tmp_path):
        path = write_config(
            tmp_path,
            {
                "verb": "characteristics",
                "grid": {"d": 1, "N": 2},
                "params": {"weight": {"kind": "constant", "value": 2.0}},
                "output": {"format": "csv"},
            },
        )
        assert main(["characteristics", "--config", path, "--out", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out" / "manifest.json").exists()

    def test_exit_two_on_bad_config(self, tmp_path):
        path = write_config(tmp_path, {"verb": "characteristics", "grid": {"d": 1, "N": 2}, "bogus": 1})
        assert main(["characteristics", "--config", path]) == 2

    @pytest.mark.parametrize(
        "params,field",
        [
            ({"count": -5}, "params.count"),
            ({"count": 2.7}, "params.count"),
            ({"pairs": [[0.1, 0.2, 0.5]]}, "params.pairs[0]"),
            ({"pairs": [[0.1, 0.2, 0.5, 0.6], [0.1, 0.2, 0.5, 1.5]]}, "params.pairs[1]"),
        ],
    )
    def test_exit_two_on_bad_hilbert_params(self, tmp_path, capsys, params, field):
        cfg = {"verb": "hilbert-approx", "grid": {"d": 1, "N": 5}, "seed": 1, "params": params}
        path = write_config(tmp_path, cfg)
        out = str(tmp_path / "out")
        assert main(["hilbert-approx", "--config", path, "--out", out]) == 2
        assert field in capsys.readouterr().err
        assert not (tmp_path / "out" / "manifest.json").exists()

    @pytest.mark.parametrize(
        "verb,params,field",
        [
            ("stopping-audit", {"count": 0}, "params.count must be a positive integer"),
            ("stopping-audit", {"count": -5}, "params.count must be a positive integer"),
            ("stopping-audit", {"count": 2.7}, "params.count must be a positive integer"),
            ("stopping-audit", {"count": True}, "params.count must be a positive integer"),
            ("sharpness-sweep", {"budget": -1}, "params.budget must be a non-negative integer"),
            ("sharpness-sweep", {"budget": 2.5}, "params.budget must be a non-negative integer"),
            ("sharpness-sweep", {"budget": True}, "params.budget must be a non-negative integer"),
            (
                "sharpness-sweep",
                {"random_starts": -3},
                "params.random_starts must be a non-negative integer",
            ),
            (
                "sharpness-sweep",
                {"random_starts": 1.5},
                "params.random_starts must be a non-negative integer",
            ),
            (
                "sharpness-sweep",
                {"random_starts": False},
                "params.random_starts must be a non-negative integer",
            ),
            ("invariant-suite", {"samples": 0}, "params.samples must be a positive integer"),
            ("invariant-suite", {"samples": -3}, "params.samples must be a positive integer"),
            ("invariant-suite", {"samples": 2.7}, "params.samples must be a positive integer"),
            ("invariant-suite", {"samples": "5"}, "params.samples must be a positive integer"),
            ("invariant-suite", {"samples": True}, "params.samples must be a positive integer"),
            ("invariant-suite", {"samples": None}, "params.samples must be a positive integer"),
            ("sawyer-test", {"tau": {"kind": "random", "density": 5}}, "params.tau.density must be a number in [0, 1]"),
            ("sawyer-test", {"tau": {"kind": "random", "density": -1}}, "params.tau.density must be a number in [0, 1]"),
            ("sawyer-test", {"tau": {"kind": "random", "density": "x"}}, "params.tau.density must be a number in [0, 1]"),
            ("sawyer-test", {"tau": {"kind": "random", "density": True}}, "params.tau.density must be a number in [0, 1]"),
            ("sawyer-test", {"tau": {"kind": "random", "scale": True}}, "params.tau.scale must be a finite number >= 0"),
            ("sawyer-test", {"tau": {"kind": "random", "scale": -0.5}}, "params.tau.scale must be a finite number >= 0"),
            ("sawyer-test", {"tau": {"kind": "random", "scale": float("inf")}}, "params.tau.scale must be a finite number >= 0"),
            ("characteristics", {"p": 2.0}, "params.p must be a list of numbers in (1, infinity)"),
            ("characteristics", {"p": [None]}, "params.p[0] must be a number in (1, infinity)"),
            ("characteristics", {"p": [True]}, "params.p[0] must be a number in (1, infinity)"),
            ("characteristics", {"p": ["x"]}, "params.p[0] must be a number in (1, infinity)"),
            ("characteristics", {"p": [2.0, 1]}, "params.p[1] must be a number in (1, infinity)"),
            ("characteristics", {"p": [float("inf")]}, "params.p[0] must be a number in (1, infinity)"),
            ("characteristics", {"ainfty_mode": 5}, "params.ainfty_mode must be 'dyadic' or 'centered'"),
            ("characteristics", {"ainfty_mode": "Dyadic"}, "params.ainfty_mode must be 'dyadic' or 'centered'"),
            ("sawyer-test", {"p": [2]}, "params.p must be a number in (1, infinity)"),
            ("sawyer-test", {"p": True}, "params.p must be a number in (1, infinity)"),
            ("sawyer-test", {"p": 1}, "params.p must be a number in (1, infinity)"),
            ("lerner-decompose", {"function": {"kind": "random", "spikes": -1}}, "params.function.spikes must be a non-negative integer"),
            ("lerner-decompose", {"function": {"kind": "random", "spikes": "x"}}, "params.function.spikes must be a non-negative integer"),
            ("lerner-decompose", {"function": {"kind": "random", "spikes": 1.5}}, "params.function.spikes must be a non-negative integer"),
            ("lerner-decompose", {"function": {"kind": "random", "spikes": True}}, "params.function.spikes must be a non-negative integer"),
            ("characteristics", {"ainfty_mode": "centered"}, "params.ainfty_mode 'centered' needs grid.d <= 2, got grid.d = 3"),
            ("hilbert-approx", {"count": 2**20 + 1}, "params.count must be at most 1048576 (2^20), got 1048577"),
            ("characteristics", {"weight": {"kind": "power", "alpha": -0.5, "center": float("inf")}}, "params.weight.center must be a finite number"),
            ("characteristics", {"weight": {"kind": "power", "alpha": True}}, "params.weight.alpha must be a finite number > -1"),
            ("characteristics", {"weight": {"kind": "power", "alpha": -1}}, "params.weight.alpha must be a finite number > -1"),
            ("characteristics", {"weight": {"kind": "power", "center": 0.5}}, "params.weight.alpha must be a finite number > -1"),
            ("characteristics", {"weight": {"kind": "two_value", "value": 2.0, "level": 1.5}}, "params.weight.level must be an integer in [0, grid.N = 4]"),
            ("characteristics", {"weight": {"kind": "two_value", "value": 2.0, "level": True}}, "params.weight.level must be an integer in [0, grid.N = 4]"),
            ("characteristics", {"weight": {"kind": "two_value", "value": 2.0, "level": 5}}, "params.weight.level must be an integer in [0, grid.N = 4]"),
            ("characteristics", {"weight": {"kind": "two_value", "value": 2.0}}, "params.weight.level must be an integer in [0, grid.N = 4]"),
            ("characteristics", {"weight": {"kind": "two_value", "value": 0, "level": 1}}, "params.weight.value must be a finite number > 0"),
            ("characteristics", {"weight": {"kind": "constant", "value": float("nan")}}, "params.weight.value must be a finite number > 0"),
            ("characteristics", {"weight": {"kind": "cascade", "volatility": float("inf")}}, "params.weight.volatility must be a number in [0, 1)"),
            ("stopping-audit", {"weight": {"kind": "cascade", "volatility": 1.5}}, "params.weight.volatility must be a number in [0, 1)"),
            ("characteristics", {"weight": {"kind": "cascade", "seed": 1.5}}, "params.weight.seed must be a non-negative integer"),
            ("sawyer-test", {"sigma": {"kind": "constant", "value": True}}, "params.sigma.value must be a finite number > 0"),
            ("shift-apply", {"operator": {"kind": "random", "m": float("inf"), "n": 1}}, "params.operator.m must be a non-negative integer"),
            ("shift-apply", {"operator": {"kind": "random", "m": 1.7, "n": 1}}, "params.operator.m must be a non-negative integer"),
            ("shift-apply", {"operator": {"kind": "random", "m": 1, "n": -1}}, "params.operator.n must be a non-negative integer"),
            ("shift-apply", {"operator": {"kind": "random", "seed": 1.5}}, "params.operator.seed must be a non-negative integer"),
            ("shift-apply", {"operator": {"kind": "random", "seed": True}}, "params.operator.seed must be a non-negative integer"),
            ("shift-apply", {"operator": {"kind": "random", "cancellative": "no"}}, "params.operator.cancellative must be true or false"),
        ],
    )
    def test_exit_two_on_bad_counts(self, tmp_path, capsys, verb, params, field):
        d = 3 if params.get("ainfty_mode") == "centered" else 1  # the centred mode is valid for d <= 2
        cfg = {"verb": verb, "grid": {"d": d, "N": 4}, "seed": 3, "params": params}
        path = write_config(tmp_path, cfg)
        assert main([verb, "--config", path, "--out", str(tmp_path / "out")]) == 2
        assert field in capsys.readouterr().err
        assert not (tmp_path / "out" / "manifest.json").exists()

    @pytest.mark.parametrize("seed", [5, 99])
    def test_exit_two_on_stopping_audit_weight_seed(self, tmp_path, capsys, seed):
        # sample i draws from the config seed + i, so a weight seed would be ignored
        weight = {"kind": "cascade", "volatility": 0.6, "seed": seed}
        cfg = {"verb": "stopping-audit", "grid": {"d": 1, "N": 4}, "seed": 3,
               "params": {"count": 2, "weight": weight}}
        path = write_config(tmp_path, cfg)
        assert main(["stopping-audit", "--config", path, "--out", str(tmp_path / "out")]) == 2
        assert "params.weight.seed" in capsys.readouterr().err
        assert not (tmp_path / "out" / "manifest.json").exists()

    @pytest.mark.parametrize(
        "pair,cells",
        [
            ([0.1, 0.11, 0.5, 0.6], "cells [1, 1) and [4, 5) of 8"),  # f selects no cell
            ([0.1, 0.6, 0.4, 0.9], "cells [1, 5) and [3, 7) of 8"),  # overlapping supports
        ],
    )
    def test_exit_two_names_the_rounded_hilbert_pair(self, tmp_path, capsys, pair, cells):
        params = {"count": 4, "pairs": [[0.0, 0.25, 0.5, 0.75], pair]}
        cfg = {"verb": "hilbert-approx", "grid": {"d": 1, "N": 3}, "seed": 1, "params": params}
        path = write_config(tmp_path, cfg)
        assert main(["hilbert-approx", "--config", path, "--out", str(tmp_path / "out")]) == 2
        assert f"params.pairs[1] rounds to {cells}" in capsys.readouterr().err
        assert not (tmp_path / "out" / "manifest.json").exists()

    def test_exit_two_names_the_first_faulty_hilbert_pair(self, tmp_path, capsys):
        pairs = [[0.0, 0.25, 0.5, 0.75], [0.1, 0.11, 0.5, 0.6], [0.1, 0.6, 0.4, 0.9]]
        cfg = {"verb": "hilbert-approx", "grid": {"d": 1, "N": 3}, "seed": 1, "params": {"count": 4, "pairs": pairs}}
        path = write_config(tmp_path, cfg)
        assert main(["hilbert-approx", "--config", path, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "params.pairs[1] rounds to cells [1, 1) and [4, 5) of 8" in err and "pairs[2]" not in err
        assert not (tmp_path / "out" / "manifest.json").exists()

    @pytest.mark.parametrize("N,oracle", [(1, "0.5"), (5, "0.6777662022075267")])
    def test_hilbert_approx_with_every_pairing_zero(self, tmp_path, N, oracle):
        # the fitted constant is 0, so every residual is NaN, and so is the max
        cfg = {"verb": "hilbert-approx", "grid": {"d": 1, "N": N}, "seed": 1,
               "params": {"count": 3, "pairs": [[0, 0.5, 0.5, 1]]}}
        path = write_config(tmp_path, cfg)
        assert main(["hilbert-approx", "--config", path, "--out", str(tmp_path / "out")]) == 0
        lines = (tmp_path / "out" / "hilbert_approx.csv").read_text().splitlines()
        assert lines[1] == f"0,0,0.5,0.5,1,0,{oracle},0,nan,0,0"
        constants = manifest_of(tmp_path / "out")["constants"]
        assert constants["fitted_constant"] == 0.0 and np.isnan(constants["max_residual"])

    @pytest.mark.parametrize(
        "tau,field",
        [
            ([{"cube": {"level": 0, "coords": [0]}, "tau": 0.5}, {"cube": {"level": 1}, "tau": 1.0}],
             "params.tau[1].cube"),
            ([{"cube": {"level": 0, "coords": [0]}}], "params.tau[0]"),
            ([0.5], "params.tau[0]"),
            ([{"cube": {"level": 1, "coords": [0]}, "tau": t} for t in (0.5, 0.9)], "params.tau[1] repeats params.tau[0]"),
        ],
    )
    def test_exit_two_on_malformed_tau_list(self, tmp_path, capsys, tau, field):
        cfg = {"verb": "sawyer-test", "grid": {"d": 1, "N": 3}, "params": {"tau": tau}}
        path = write_config(tmp_path, cfg)
        assert main(["sawyer-test", "--config", path, "--out", str(tmp_path / "out")]) == 2
        assert field in capsys.readouterr().err
        assert not (tmp_path / "out" / "manifest.json").exists()

    def test_exit_two_on_malformed_paraproduct_coefficient(self, tmp_path, capsys):
        fpath = tmp_path / "f.json"
        fpath.write_text(StepFunction.constant(GridSpec(1, 3), 1.0).to_json())
        coefficients = [
            {"cube": {"level": 0, "coords": [0]}, "a": 0.5},
            {"cube": {"level": 1, "coords": [1]}},
        ]
        operator = {"kind": "paraproduct", "coefficients": coefficients}
        params = {"input": str(fpath), "operator": operator}
        cfg = {"verb": "shift-apply", "grid": {"d": 1, "N": 3}, "params": params}
        path = write_config(tmp_path, cfg)
        assert main(["shift-apply", "--config", path, "--out", str(tmp_path / "out")]) == 2
        assert "params.operator.coefficients[1]" in capsys.readouterr().err
        assert not (tmp_path / "out" / "manifest.json").exists()

    def test_exit_two_on_repeated_paraproduct_cube(self, tmp_path, capsys):
        fpath = tmp_path / "f.json"
        fpath.write_text(StepFunction.constant(GridSpec(1, 3), 1.0).to_json())
        coefficients = [
            {"cube": {"level": 1, "coords": [1]}, "a": 0.5},
            {"cube": {"level": 0, "coords": [0]}, "a": 0.5},
            {"cube": {"level": 1, "coords": [1]}, "a": -0.5},
        ]
        operator = {"kind": "paraproduct", "coefficients": coefficients}
        params = {"input": str(fpath), "operator": operator}
        cfg = {"verb": "shift-apply", "grid": {"d": 1, "N": 3}, "params": params}
        path = write_config(tmp_path, cfg)
        assert main(["shift-apply", "--config", path, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "params.operator.coefficients[2] repeats params.operator.coefficients[0]" in err
        assert not (tmp_path / "out" / "manifest.json").exists()

    def test_exit_two_on_non_finite_paraproduct_coefficient(self, tmp_path, capsys):
        fpath = tmp_path / "f.json"
        fpath.write_text(StepFunction.constant(GridSpec(1, 3), 1.0).to_json())
        coefficients = [{"cube": {"level": 1, "coords": [1]}, "a": float("nan")}]
        operator = {"kind": "paraproduct", "coefficients": coefficients}
        params = {"input": str(fpath), "operator": operator}
        cfg = {"verb": "shift-apply", "grid": {"d": 1, "N": 3}, "params": params}
        path = write_config(tmp_path, cfg)
        assert main(["shift-apply", "--config", path, "--out", str(tmp_path / "out")]) == 2
        assert "params.operator.coefficients" in capsys.readouterr().err
        assert not (tmp_path / "out" / "manifest.json").exists()

    @pytest.mark.parametrize(
        "params,field",
        [
            ({"p": 2}, "params.p must be a non-empty list"),
            ({"p": []}, "params.p must be a non-empty list"),
            ({"p": [2.0, 1.0]}, "params.p[1] must be a finite number greater than 1"),
            ({"p": [float("nan")]}, "params.p[0] must be a finite number greater than 1"),
            ({"p": ["3"]}, "params.p[0] must be a finite number greater than 1"),
            ({"N": []}, "params.N must be a non-empty list"),
            ({"N": [5.5]}, "params.N[0] must be an integer in [1, grid.N = 6]"),
            ({"N": [True]}, "params.N[0] must be an integer in [1, grid.N = 6]"),
            ({"N": [4, 0]}, "params.N[1] must be an integer in [1, grid.N = 6]"),
            ({"N": [7]}, "params.N[0] must be an integer in [1, grid.N = 6]"),
            ({"operators": "petermichl"}, "params.operators must be a non-empty list"),
            ({"operators": []}, "params.operators must be a non-empty list"),
            ({"operators": ["petermichl", "hilbert"]}, "params.operators[1] must be one of"),
            ({"p": [2.0, 3.0, 2]}, "params.p[2] repeats params.p[0]"),
            ({"N": [4, 4]}, "params.N[1] repeats params.N[0]"),
            (
                {"operators": ["random2a", "petermichl", "random2a"]},
                "params.operators[2] repeats params.operators[0]",
            ),
            ({"N": [2]}, "params.N[0] must be at least 4"),
            ({"operators": ["petermichl"], "N": [3, 2]}, "params.N[1] must be at least 3"),
            ({"operators": ["petermichl", "random2b"], "N": [4, 3]}, "params.N[1] must be at least 4"),
        ],
    )
    def test_exit_two_on_bad_sweep_lists(self, tmp_path, capsys, params, field):
        cfg = {"verb": "sharpness-sweep", "grid": {"d": 1, "N": 6}, "seed": 3, "params": params}
        path = write_config(tmp_path, cfg)
        assert main(["sharpness-sweep", "--config", path, "--out", str(tmp_path / "out")]) == 2
        assert field in capsys.readouterr().err
        assert not (tmp_path / "out" / "manifest.json").exists()

    @pytest.mark.parametrize(
        "grid_N,params,field",
        [
            (3, {}, "params.N (by default [3] from grid.N) must be at least 4"),
            (3, {"operators": ["random2a"]}, "params.N (by default [3] from grid.N) must be at least 4"),
            (2, {"operators": ["petermichl"]}, "params.N (by default [2] from grid.N) must be at least 3"),
        ],
    )
    def test_exit_two_on_default_sweep_levels_below_the_least(self, tmp_path, capsys, grid_N, params, field):
        cfg = {"verb": "sharpness-sweep", "grid": {"d": 1, "N": grid_N}, "seed": 3, "params": params}
        path = write_config(tmp_path, cfg)
        assert main(["sharpness-sweep", "--config", path, "--out", str(tmp_path / "out")]) == 2
        assert field in capsys.readouterr().err
        assert not (tmp_path / "out" / "manifest.json").exists()

    @pytest.mark.parametrize(
        "tau,field",
        [(float("nan"), "params.tau[0]"), (float("inf"), "params.tau[0]"), (-1.0, "params.tau")],
    )
    def test_exit_two_on_bad_tau_value(self, tmp_path, capsys, tau, field):
        items = [{"cube": {"level": 0, "coords": [0]}, "tau": tau}]
        cfg = {"verb": "sawyer-test", "grid": {"d": 1, "N": 3}, "params": {"tau": items}}
        path = write_config(tmp_path, cfg)
        assert main(["sawyer-test", "--config", path, "--out", str(tmp_path / "out")]) == 2
        assert field in capsys.readouterr().err
        assert not (tmp_path / "out" / "manifest.json").exists()

    @pytest.mark.parametrize("verb", ["shift-apply", "lerner-decompose"])
    @pytest.mark.parametrize("bad", ["NaN", "Infinity"])
    def test_exit_two_on_non_finite_input_values(self, tmp_path, capsys, verb, bad):
        fpath = tmp_path / "f.json"
        fpath.write_text('{"d": 1, "N": 3, "shift": [0.0], "values": [%s, 1, 1, 1, 1, 1, 1, 1]}' % bad)
        cfg = {"verb": verb, "grid": {"d": 1, "N": 3}, "params": {"input": str(fpath)}}
        path = write_config(tmp_path, cfg)
        assert main([verb, "--config", path, "--out", str(tmp_path / "out")]) == 2
        assert "params.input" in capsys.readouterr().err
        assert not (tmp_path / "out" / "manifest.json").exists()

    @pytest.mark.parametrize(
        "function",
        [
            {"kind": "values"},  # no values
            {"kind": "values", "values": [1.0, 2.0]},  # 2 of 8 cells
            {"kind": "values", "values": [1.0, "2", 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]},
            {"kind": "values", "values": [1.0, float("nan"), 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]},
        ],
    )
    def test_exit_two_on_bad_lerner_values(self, tmp_path, capsys, function):
        cfg = {"verb": "lerner-decompose", "grid": {"d": 1, "N": 3}, "params": {"function": function}}
        path = write_config(tmp_path, cfg)
        assert main(["lerner-decompose", "--config", path, "--out", str(tmp_path / "out")]) == 2
        assert "params.function.values" in capsys.readouterr().err
        assert not (tmp_path / "out" / "manifest.json").exists()

    def test_exit_two_on_input_file_without_values(self, tmp_path, capsys):
        fpath = tmp_path / "f.json"
        fpath.write_text(json.dumps({"d": 1, "N": 3, "shift": [0.0]}))
        cfg = {"verb": "lerner-decompose", "grid": {"d": 1, "N": 3}, "params": {"input": str(fpath)}}
        path = write_config(tmp_path, cfg)
        assert main(["lerner-decompose", "--config", path, "--out", str(tmp_path / "out")]) == 2
        assert "params.input" in capsys.readouterr().err
        assert not (tmp_path / "out" / "manifest.json").exists()

    def test_exit_two_on_missing_file(self, tmp_path):
        assert main(["characteristics", "--config", str(tmp_path / "nope.json")]) == 2

    def test_help_lists_exit_codes(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--help"])
        assert info.value.code == 0
        out = capsys.readouterr().out
        assert "exit codes:" in out
        for code in "012":
            assert f"\n  {code}  " in out
        assert "\n  3  " not in out

    def test_sweep_names_one_dimensional_operators(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            {
                "verb": "sharpness-sweep",
                "grid": {"d": 2, "N": 3},
                "seed": 1,
                "params": {},
                "output": {"format": "csv"},
            },
        )
        assert main(["sharpness-sweep", "--config", path, "--out", str(tmp_path / "out")]) == 2
        assert "default sweep operators are one-dimensional" in capsys.readouterr().err

    def test_seed_override_changes_output(self, tmp_path):
        path = write_config(
            tmp_path,
            {
                "verb": "stopping-audit",
                "grid": {"d": 1, "N": 5},
                "seed": 1,
                "params": {"count": 3},
                "output": {"format": "csv"},
            },
        )
        assert main(["stopping-audit", "--config", path, "--out", str(tmp_path / "o1")]) == 0
        assert (
            main(["stopping-audit", "--config", path, "--seed", "2", "--out", str(tmp_path / "o2")])
            == 0
        )
        a = (tmp_path / "o1" / "stopping_audit.csv").read_bytes()
        b = (tmp_path / "o2" / "stopping_audit.csv").read_bytes()
        assert a != b


class TestOperatorSeedValidation:
    def test_random_operator_without_seed_is_config_error(self, tmp_path):
        g = GridSpec(1, 3)
        f = StepFunction.constant(g, 1.0)
        fpath = tmp_path / "f.json"
        fpath.write_text(f.to_json())
        path = write_config(
            tmp_path,
            {
                "verb": "shift-apply",
                "grid": {"d": 1, "N": 3},
                "params": {"input": str(fpath), "operator": {"kind": "random", "m": 1, "n": 1}},
                "output": {"format": "csv"},
            },
        )
        assert main(["shift-apply", "--config", path, "--out", str(tmp_path / "o")]) == 2

    # the runners' defaults draw a random function and a random tau
    @pytest.mark.parametrize("verb", ["lerner-decompose", "sawyer-test"])
    def test_random_default_without_seed_exits_two(self, tmp_path, capsys, verb):
        cfg = {"verb": verb, "grid": {"d": 1, "N": 4}}
        path = write_config(tmp_path, cfg)
        assert main([verb, "--config", path, "--out", str(tmp_path / "o")]) == 2
        assert "field 'seed'" in capsys.readouterr().err
        assert not (tmp_path / "o" / "manifest.json").exists()
        parse_config({**cfg, "seed": 1})

    @pytest.mark.parametrize(
        "verb,params",
        [
            ("lerner-decompose", {"function": {"kind": "values", "values": [0.0, 1.0, 0.0, 3.0]}}),
            ("sawyer-test", {"tau": [{"cube": {"level": 1, "coords": [1]}, "tau": 0.5}]}),
        ],
    )
    def test_given_inputs_need_no_seed(self, verb, params):
        assert parse_config({"verb": verb, "grid": {"d": 1, "N": 2}, "params": params}).seed is None

    def test_random_operator_inherits_config_seed(self, tmp_path):
        g = GridSpec(1, 4)
        f = StepFunction(g, np.random.default_rng(1).standard_normal(g.cells))
        fpath = tmp_path / "f.json"
        fpath.write_text(f.to_json())
        path = write_config(
            tmp_path,
            {
                "verb": "shift-apply",
                "grid": {"d": 1, "N": 4},
                "seed": 7,
                "params": {"input": str(fpath), "operator": {"kind": "random", "m": 1, "n": 1}},
                "output": {"format": "csv"},
            },
        )
        assert main(["shift-apply", "--config", path, "--out", str(tmp_path / "o")]) == 0


def _cube(level, *coords):
    return {"level": level, "coords": list(coords)}


def _items(key, *entries):
    """Coefficient items: (cube, value) becomes {"cube": cube, key: value},
    (value,) an item without a cube; anything else is kept as it is."""
    return [
        ({"cube": e[0], key: e[1]} if len(e) == 2 else {key: e[0]}) if isinstance(e, tuple) else e
        for e in entries
    ]


_OK = [(_cube(2, z), 0.25) for z in range(4)] + [(_cube(1, z), 0.25) for z in range(2)]
_AT_0 = "{w}[0].cube: "

# case: (entries, the error at the parent of the array path); {w} is the
# list's name and {form} its item form, the same for tau and paraproduct lists
_LIST_FAULTS = {
    "item_not_object": ([_OK[0], 0.5], "ValueError: {w}[1] must be an object {form}"),
    "missing_value": ([_OK[0], {"cube": _cube(0, 0)}], "ValueError: {w}[1] must be an object {form}"),
    "value_bool": ([(_cube(0, 0), True)], "ValueError: {w}[0] must be an object {form}"),
    "value_string": ([(_cube(0, 0), "0.5")], "ValueError: {w}[0] must be an object {form}"),
    "value_nan": ([_OK[0], (_cube(0, 0), float("nan"))], "ValueError: {w}[1] must be an object {form}"),
    "value_inf": ([(_cube(0, 0), float("-inf"))], "ValueError: {w}[0] must be an object {form}"),
    "value_huge_int": ([(_cube(0, 0), 10**400)], "ValueError: {w}[0] must be an object {form}"),
    "cube_missing": ([(0.5,)], "ValueError: " + _AT_0 + "cube must be an object {{level, coords}}"),
    "cube_not_object": ([([0, 0], 0.5)], "ValueError: " + _AT_0 + "cube must be an object {{level, coords}}"),
    "level_float": ([({"level": 1.0, "coords": [0]}, 0.5)], "ValueError: " + _AT_0 + "cube field 'level' must be an integer"),
    "level_bool": ([({"level": True, "coords": [0]}, 0.5)], "ValueError: " + _AT_0 + "cube field 'level' must be an integer"),
    "level_missing": ([({"coords": [0]}, 0.5)], "ValueError: " + _AT_0 + "cube field 'level' must be an integer"),
    "coords_not_list": ([({"level": 1, "coords": 0}, 0.5)], "ValueError: " + _AT_0 + "cube field 'coords' must be a list of 1 integers"),
    "coords_too_long": ([(_cube(1, 0, 0), 0.5)], "ValueError: " + _AT_0 + "cube field 'coords' must be a list of 1 integers"),
    "coords_bool": ([({"level": 1, "coords": [True]}, 0.5)], "ValueError: " + _AT_0 + "cube field 'coords' must be a list of 1 integers"),
    "coords_float": ([({"level": 1, "coords": [0.0]}, 0.5)], "ValueError: " + _AT_0 + "cube field 'coords' must be a list of 1 integers"),
    "level_negative": ([_OK[0], (_cube(-1, 0), 0.5)], "ValueError: {w}[1].cube: level -1 outside [0, 3]"),
    "level_above_N": ([(_cube(4, 0), 0.5)], "ValueError: " + _AT_0 + "level 4 outside [0, 3]"),
    "level_huge": ([(_cube(10**30, 0), 0.5)], "ValueError: " + _AT_0 + f"level {10**30} outside [0, 3]"),
    "coord_negative": ([(_cube(2, -1), 0.5)], "ValueError: " + _AT_0 + "coordinate -1 outside [0, 2^2)"),
    "coord_too_big": ([_OK[1], (_cube(2, 4), 0.5)], "ValueError: {w}[1].cube: coordinate 4 outside [0, 2^2)"),
    "coord_huge": ([(_cube(2, 10**30), 0.5)], "ValueError: " + _AT_0 + f"coordinate {10**30} outside [0, 2^2)"),
    "repeat": ([_OK[0], _OK[1], (_cube(2, 0), 0.125)], "ValueError: {w}[2] repeats {w}[0]"),
    "repeat_5_before_malformed_9": (
        _OK[:5] + [(_cube(2, 3), 0.1), _OK[5], _OK[0], _OK[0], {"cube": _cube(0, 0)}],
        "ValueError: {w}[5] repeats {w}[3]",
    ),
    "malformed_3_before_repeat_6": (
        _OK[:3] + [(_cube(2, 7), 0.5), _OK[3], _OK[4], _OK[0]],
        "ValueError: {w}[3].cube: coordinate 7 outside [0, 2^2)",
    ),
    # an ill-typed item stops the pass that reads the items; a range fault or
    # repeat before it is still the one named
    "range_3_before_type_7": (
        _OK[:3] + [(_cube(2, 9), 0.5)] + _OK[3:6] + [({"level": 1.0, "coords": [0]}, 0.5)],
        "ValueError: {w}[3].cube: coordinate 9 outside [0, 2^2)",
    ),
    "type_3_before_range_7": (
        _OK[:3] + [({"level": True, "coords": [0]}, 0.5)] + _OK[3:6] + [(_cube(5, 0), 0.5)],
        "ValueError: {w}[3].cube: cube field 'level' must be an integer",
    ),
    "repeat_3_before_type_7": (_OK[:3] + [_OK[0]] + _OK[3:6] + [0.5], "ValueError: {w}[3] repeats {w}[0]"),
    "type_3_before_repeat_7": (
        _OK[:3] + [(_cube(1, 0), "0.5")] + _OK[3:6] + [_OK[1]],
        "ValueError: {w}[3] must be an object {form}",
    ),
    "value_nan_and_level_float": ([({"level": 1.0, "coords": [0]}, float("nan"))], "ValueError: {w}[0] must be an object {form}"),
    "repeat_of_repeat": ([_OK[0]] * 3, "ValueError: {w}[1] repeats {w}[0]"),
    "two_repeats_second_first": ([_OK[0], _OK[1], _OK[1], _OK[0]], "ValueError: {w}[2] repeats {w}[1]"),
    "empty": ([], None),
}
_TAU_FAULTS = {
    "negative": ([_OK[0], (_cube(0, 0), -0.5)], "ConfigError: params.tau: tau coefficients must be finite and non-negative"),
    "negative_then_repeat": ([(_cube(0, 0), -0.5), _OK[0], _OK[0]], "ValueError: params.tau[2] repeats params.tau[1]"),
}
_PARAPRODUCT_FAULTS = {
    "not_a_list": ({"x": 1}, "ValueError: {w} must be a list of {form} items"),
    "finest_level": (
        [_OK[0], (_cube(3, 5), 0.1)],
        "ConfigError: {w}: paraproduct coefficients need cubes with children",
    ),
    "bound_violation": (
        [_OK[0], (_cube(1, 0), 0.75)],
        "ConfigError: {w}: coefficient 0.75 violates |a_Q| <= sqrt(|Q|) = 0.7071067811865476",
    ),
    "bound_then_finest": (
        [(_cube(2, 1), 0.6), (_cube(3, 0), 0.1)],
        "ConfigError: {w}: coefficient 0.6 violates |a_Q| <= sqrt(|Q|) = 0.5",
    ),
    "finest_then_repeat": ([(_cube(3, 0), 0.1), _OK[0], _OK[0]], "ValueError: {w}[2] repeats {w}[1]"),
}


def _list_error(build, grid, items):
    try:
        build(grid, items)
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"
    return None


def _tau_error(grid, entries):
    return _list_error(lambda g, items: _build_tau(g, items, None), grid, _items("tau", *entries))


def _paraproduct_error(grid, entries):
    items = entries if isinstance(entries, dict) else _items("a", *entries)
    return _list_error(
        lambda g, items: _build_operator(g, {"kind": "paraproduct", "coefficients": items}), grid, items
    )


class TestCoefficientLists:
    """The errors of malformed coefficient lists, recorded before the lists
    were read into arrays: the first faulty item is named."""

    TAU = {"w": "params.tau", "form": '{"cube": {level, coords}, "tau": finite number}'}
    PARAPRODUCT = {"w": "params.operator.coefficients", "form": '{"cube": {level, coords}, "a": finite number}'}

    @pytest.mark.parametrize("case", sorted({**_LIST_FAULTS, **_TAU_FAULTS}))
    def test_tau_list_errors(self, case):
        entries, want = {**_LIST_FAULTS, **_TAU_FAULTS}[case]
        assert _tau_error(GridSpec(1, 3), entries) == (want and want.format(**self.TAU))

    @pytest.mark.parametrize("case", sorted({**_LIST_FAULTS, **_PARAPRODUCT_FAULTS}))
    def test_paraproduct_list_errors(self, case):
        entries, want = {**_LIST_FAULTS, **_PARAPRODUCT_FAULTS}[case]
        assert _paraproduct_error(GridSpec(1, 3), entries) == (want and want.format(**self.PARAPRODUCT))

    @pytest.mark.parametrize(
        "entries,want",
        [
            ([(_cube(1, 0, 2), 0.5)], "params.tau[0].cube: coordinate 2 outside [0, 2^1)"),
            ([(_cube(1, 0, 1), 0.5), (_cube(2, 1, 3), 0.5), (_cube(1, 0, 1), 0.5)], "params.tau[2] repeats params.tau[0]"),
            ([(_cube(1, 0), 0.5)], "params.tau[0].cube: cube field 'coords' must be a list of 2 integers"),
        ],
    )
    def test_tau_list_errors_in_d2(self, entries, want):
        assert _tau_error(GridSpec(2, 2), entries) == "ValueError: " + want

    @pytest.mark.parametrize("d,N", [(1, 6), (2, 3)])
    def test_tau_from_arrays_matches_dict_and_loop(self, d, N):
        g = GridSpec(d, N)
        rng = np.random.default_rng(10 * d + N)
        cubes = [Q for Q in g.all_cubes() if rng.random() < 0.5]
        rng.shuffle(cubes)
        values = [float(v) for v in rng.choice([0.0, -0.0, 0.25, 1.5, 3.0], len(cubes))]
        items = [{"cube": Q.to_dict(), "tau": t} for Q, t in zip(cubes, values)]
        from_list = _build_tau(g, items, None)
        from_dict = TauCoefficients(g, dict(zip(cubes, values)))
        want = [np.zeros(1 << (d * k)) for k in range(N + 1)]
        for Q, t in zip(cubes, values):
            if t != 0.0:
                want[Q.level][Q.zindex] = t
        for a, b, c in zip(from_list.levels, from_dict.levels, want):
            assert a.tobytes() == b.tobytes() == c.tobytes()  # bit for bit: no -0.0 kept
            assert not a.flags.writeable
        assert 0.0 in values and any(np.signbit(values))


class TestManifest:
    def configs(self, tmp_path):
        fpath = tmp_path / "f.json"
        fpath.write_text(StepFunction.constant(GridSpec(1, 3), 1.0).to_json())
        # every cube of N = 9: longer than the manifest writer's list slices
        tau = [{"cube": Q.to_dict(), "tau": 0.5} for Q in GridSpec(1, 9).all_cubes()]
        params = {
            "characteristics": {"weight": {"kind": "cascade", "volatility": 0.5}, "p": [1.5, 3.0]},
            "shift-apply": {"input": str(fpath), "operator": {"kind": "random", "m": 1, "n": 0}},
            "hilbert-approx": {"count": 4, "pairs": [[0.0, 0.25, 0.5, 0.75]]},
            "sawyer-test": {"tau": tau, "p": 3.0},
            "lerner-decompose": {"function": {"kind": "random", "spikes": 1}},
            "stopping-audit": {"count": 2},
            "sharpness-sweep": {"operators": ["petermichl"], "p": [2.0], "N": [3], "budget": 0, "random_starts": 0},
            "invariant-suite": {"samples": 2},
        }
        assert set(params) == set(VERBS)
        return {
            verb: {"verb": verb, "grid": {"d": 1, "N": 9 if verb == "sawyer-test" else 3}, "seed": 4, "params": p}
            for verb, p in params.items()
        }

    def test_manifest_is_the_returned_one_on_one_line(self, tmp_path):
        for verb, obj in self.configs(tmp_path).items():
            cfg = parse_config(obj)
            out = tmp_path / verb
            manifest = run(cfg, str(out))
            text = (out / "manifest.json").read_text()
            assert text == json.dumps(manifest, sort_keys=True, separators=(",", ":")) + "\n"
            assert text.count("\n") == 1
            echoed = json.loads(text)["config"]
            assert parse_config(echoed).to_dict() == echoed == cfg.to_dict()

    @pytest.mark.parametrize("size", [0, 1, 255, 256, 257, 512, 1000])
    def test_sliced_encoding_matches_one_dumps_call(self, size):
        items = [{"b": [i, -0.0, 1e300 * i], "a": {"x": str(i), "y": None}} for i in range(size)]
        obj = {"z": items, "y": {"deep": [items, list(range(size)), []], "e": {}}, "x": True, "\u00e9": 1.5}
        out = io.StringIO()
        _dump_compact(obj, out.write)
        assert out.getvalue() == json.dumps(obj, sort_keys=True, separators=(",", ":"))
