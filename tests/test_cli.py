import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from hyperdecay.cli import main
from hyperdecay.presets import mgt_stack
from hyperdecay.solver import default_rho_grid
from hyperdecay.symbols import HomogeneousSymbol, OperatorStack, save_model, stack_to_dict


_WITHOUT_SCIPY = """
import json, sys
from importlib.abc import MetaPathFinder

import hyperdecay, hyperdecay.cli

loaded = sorted(name for name in sys.modules if name.startswith("scipy"))


class RefuseScipy(MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.startswith("scipy"):
            raise ImportError(f"{name} is not installed")


sys.meta_path.insert(0, RefuseScipy())
codes = [hyperdecay.cli.main(["--out", sys.argv[1]] + argv)
         for argv in (["asymptotics", "em_elastic", "--regime", "low"], ["reproduce", "mgt"])]
print(json.dumps({"loaded": loaded, "codes": codes}))
"""


def test_cli_runs_without_scipy(tmp_path):
    # scipy is a test dependency only: the package imports none of it, and the
    # CLI runs with every scipy import refused
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", _WITHOUT_SCIPY, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result == {"loaded": [], "codes": [0, 0]}


def test_classify_preset_exit_codes(tmp_path, capsys):
    assert main(["--out", str(tmp_path), "classify", "mgt"]) == 0
    out = capsys.readouterr().out
    assert "strictly stable" in out
    doc = json.loads((tmp_path / "mgt_classify.json").read_text())
    assert doc["strictly_stable"] is True


def test_classify_unstable_model_exit_2(tmp_path):
    path = tmp_path / "unstable.json"
    save_model(mgt_stack(b=0.0), path, "mgt_b0")
    assert main(["--out", str(tmp_path), "classify", str(path)]) == 2


def test_classify_borderline_margin_exit_3(tmp_path, capsys):
    path = tmp_path / "borderline.json"
    save_model(mgt_stack(b=5e-9), path, "mgt_borderline")
    assert main(["--out", str(tmp_path), "classify", str(path)]) == 3
    assert "inconclusive" in capsys.readouterr().out


def test_classify_non_hyperbolic_exit_2(tmp_path):
    doc = {
        "name": "elliptic", "dim": 1,
        "symbols": [
            {"order": 2, "terms": [{"k": 2, "alpha": [0], "c": 1.0}, {"k": 0, "alpha": [2], "c": 1.0}]},
            {"order": 1, "terms": [{"k": 1, "alpha": [0], "c": 1.0}]},
        ],
    }
    path = tmp_path / "elliptic.json"
    path.write_text(json.dumps(doc))
    assert main(["--out", str(tmp_path), "classify", str(path)]) == 2


def _strict_json(path):
    """Parse JSON, rejecting the NaN, Infinity and -Infinity tokens that strict parsers refuse."""
    def reject(name):
        raise ValueError(f"non-JSON constant {name}")

    return json.loads(path.read_text(), parse_constant=reject)


def test_classify_json_has_no_infinite_margin(tmp_path):
    # P_3 = lambda^3 + lambda |xi|^2 has roots 0, +-i|xi|: every interlacing row fails
    # with margin -inf, which strict JSON writes as null
    lam3 = {(3, (0, 0)): 1.0, (1, (2, 0)): 1.0, (1, (0, 2)): 1.0}
    lam2 = {(2, (0, 0)): 1.0, (0, (2, 0)): 1.0, (0, (0, 2)): 2.0}
    stack = OperatorStack.build([HomogeneousSymbol(3, 2, lam3), HomogeneousSymbol(2, 2, lam2),
                                 HomogeneousSymbol(1, 2, {(1, (0, 0)): 1.0})])
    save_model(stack, tmp_path / "elliptic2d.json", "elliptic2d")
    assert main(["--out", str(tmp_path), "classify", str(tmp_path / "elliptic2d.json")]) == 2

    doc = _strict_json(tmp_path / "elliptic2d_classify.json")
    assert doc["min_margin"] is None
    assert doc["interlacing_upper"]["margin"] is None


def test_non_finite_fit_values_are_null(tmp_path):
    # an expansion exact to tracking accuracy has an infinite fitted remainder order
    for regime in ("low", "high"):
        assert main(["--out", str(tmp_path), "asymptotics", "em_elastic", "--regime", regime]) == 0
        fits = _strict_json(tmp_path / f"em_elastic_asymptotics_{regime}_fit.json")["records"]
        assert any(f["fitted_remainder_order"] is None for f in fits), regime
    # two times leave fewer than three points in the fit window
    flag = "fewer than 3 nonzero points in the fit window; slope undefined"
    assert main(["--out", str(tmp_path), "simulate", "mgt", "--points", "2"]) == 0
    fit = _strict_json(tmp_path / "mgt_simulate_fit.json")
    assert fit["fitted_slope"] is None and flag in fit["flags"]
    assert main(["--out", str(tmp_path), "profile", "mgt", "--points", "2"]) == 0
    fit = _strict_json(tmp_path / "mgt_profile_fit.json")
    assert fit["improvement"] is None and flag in fit["solution"]["flags"] and flag in fit["gap"]["flags"]


def test_every_preset_writes_strict_json(tmp_path):
    from hyperdecay.presets import PRESETS

    for name in PRESETS:
        assert main(["--out", str(tmp_path), "reproduce", name]) == 0, name
        for regime in ("low", "high"):
            assert main(["--out", str(tmp_path), "asymptotics", name, "--regime", regime]) == 0
    written = sorted(tmp_path.glob("*.json"))
    assert len(written) >= 3 * len(PRESETS)
    for path in written:
        _strict_json(path)


def test_reproduce_checks_every_preset_expansions(tmp_path):
    """Every preset's `reproduce` checks both expansions and writes what `asymptotics` writes."""
    from hyperdecay.presets import PRESETS

    for name in PRESETS:
        assert main(["--out", str(tmp_path / "reproduce"), "reproduce", name]) == 0, name
        checks = {c["name"]: c["passed"] for c in
                  _strict_json(tmp_path / "reproduce" / f"{name}_reproduce.json")["checks"]}
        assert checks["low_expansions"] and checks["high_expansions"], (name, checks)
        for regime in ("low", "high"):
            assert main(["--out", str(tmp_path / regime), "asymptotics", name, "--regime", regime]) == 0
            fname = f"{name}_asymptotics_{regime}.csv"
            assert ((tmp_path / "reproduce" / fname).read_bytes()
                    == (tmp_path / regime / fname).read_bytes()), fname


def test_negative_order_and_bad_step_are_config_errors(tmp_path, capsys):
    for cmd in ("simulate", "profile"):
        assert main(["--out", str(tmp_path), cmd, "mgt", "--k", "-1"]) == 1, cmd
        assert "k must be >= 0" in capsys.readouterr().err
    assert main(["--out", str(tmp_path), "semilinear", "mgt", "--p", "5", "--dim", "1",
                 "--modes", "16", "--T", "1", "--dt", "-0.1"]) == 1
    assert "time step must be finite and > 0" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_divergent_norm_is_a_config_error(tmp_path, capsys):
    # 2s + n = -3: the norm would be set by the radial grid's first point
    assert main(["--out", str(tmp_path), "simulate", "mgt", "--s", "-3"]) == 1
    assert "2s + n > 0, got s = -3.0 and n = 3" in capsys.readouterr().err
    # s = inf passes 2s + n > 0, and its weight rho^(2s + n - 1) is no norm at all
    assert main(["--out", str(tmp_path), "simulate", "mgt", "--s", "inf"]) == 1
    assert "finite s, got inf" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_nonpositive_power_is_a_config_error(tmp_path, capsys):
    for p in ("-2", "0"):
        assert main(["--out", str(tmp_path), "semilinear", "mgt", "--p", p, "--dim", "1",
                     "--modes", "16", "--T", "1"]) == 1, p
        assert "power p must be finite and > 0" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_bad_time_grid_is_a_config_error(tmp_path, capsys):
    for argv in (["simulate", "mgt", "--points", "0"], ["simulate", "mgt", "--tmin", "nan"],
                 ["simulate", "mgt", "--tmin", "1e4", "--tmax", "1e2"], ["profile", "mgt", "--points", "0"]):
        assert main(["--out", str(tmp_path)] + argv) == 1, argv
        assert "time grid must be nonempty, 1-d, finite" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_predict_impossible_inputs_are_config_errors(tmp_path, capsys):
    for argv, message in ((["mgt", "--n", "0"], "n must be finite and >= 1, got 0"),
                          (["mgt", "--n", "-2"], "n must be finite and >= 1, got -2"),
                          (["mgt", "--n", "3", "--s", "nan"], "s must be finite, got nan"),
                          (["mgt_classical_damping", "--n", "3", "--nu", "-1"],
                           "nu must be finite and >= 0, got -1.0")):
        assert main(["--out", str(tmp_path), "predict"] + argv) == 1, argv
        assert message in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_box_inputs_are_config_errors(tmp_path, capsys):
    run = ["--out", str(tmp_path), "semilinear", "mgt", "--p", "5", "--dim", "1", "--modes", "16", "--T", "1"]
    # T = inf comes last: without the check the run never ends while it decays
    for extra, message in ((["--modes", "0"], "modes_per_axis >= 1, got 0"),
                           (["--box", "0"], "half-width must be finite and > 0, got 0.0"),
                           (["--amplitude", "nan"], "amplitude must be finite, got nan"),
                           (["--T", "-5"], "end time T must be > 0, got -5.0"),
                           (["--sign", "nan"], "sign must be finite, got nan"),
                           (["--T", "nan"], "end time T must be finite, got nan"),
                           (["--T", "inf"], "end time T must be finite, got inf")):
        assert main(run + extra) == 1, extra
        assert message in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_predict_rejects_negative_order(tmp_path, capsys):
    assert main(["--out", str(tmp_path), "predict", "mgt", "--n", "3", "--k", "-1"]) == 1
    assert "k must be >= 0, got -1" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_predict_rejects_depth_3(tmp_path, capsys):
    """The decay table covers depths 1 and 2; a depth-3 preset is a config error."""
    assert main(["--out", str(tmp_path), "predict", "example_ell3", "--n", "3"]) == 1
    assert "got depth 3" in capsys.readouterr().err
    assert not (tmp_path / "example_ell3_predict.json").exists()


def test_profile_and_reproduce_propagate_once(tmp_path, propagator_inits):
    for argv in (["profile", "mgt"], ["reproduce", "mgt"]):
        propagator_inits.clear()
        assert main(["--out", str(tmp_path)] + argv) == 0
        assert len(propagator_inits) == 1, argv


def test_missing_model_is_config_error(tmp_path):
    assert main(["--out", str(tmp_path), "classify", "nonexistent.json"]) == 1


def test_predict_constraint_warning(tmp_path, capsys):
    rc = main(["--out", str(tmp_path), "predict", "blackstock_crighton",
               "--n", "1", "--q", "1", "--k", "0", "--s", "0"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "warning" in out
    doc = json.loads((tmp_path / "blackstock_crighton_predict.json").read_text())
    assert doc["constraint_ok"] is False


def test_asymptotics_outputs(tmp_path):
    rc = main(["--out", str(tmp_path), "asymptotics", "mgt", "--regime", "low"])
    assert rc == 0
    csv_text = (tmp_path / "mgt_asymptotics_low.csv").read_text().splitlines()
    assert csv_text[0] == "branch,power,re_coeff,im_coeff"
    assert len(csv_text) > 3
    fits = json.loads((tmp_path / "mgt_asymptotics_low_fit.json").read_text())
    assert all(f["fitted_remainder_order"] >= f["threshold"] for f in fits["records"])
    branches = (tmp_path / "mgt_branches_low.csv").read_text().splitlines()
    assert branches[0] == "ray_id,rho,branch,re,im"


def test_asymptotics_fit_reports_tracking(tmp_path):
    # the split pair of anisotropic_elastic_2d's low axis ray is stepped as one unit
    for direction, events in (("1,0", 108), ("1,1", 50)):
        assert main(["--out", str(tmp_path), "asymptotics", "anisotropic_elastic_2d",
                     "--regime", "low", "--direction", direction]) == 0
        fit = _strict_json(tmp_path / "anisotropic_elastic_2d_asymptotics_low_fit.json")
        assert fit["tracking"] == {"input_points": 121, "points": 121, "cluster_events": events}, direction


def test_tolerance_override(tmp_path):
    from hyperdecay.tolerances import TOL
    before = TOL.cluster_rtol
    try:
        rc = main(["--out", str(tmp_path), "--tol", "cluster_rtol=1e-5", "classify", "mgt"])
        assert rc == 0
        assert TOL.cluster_rtol == 1e-5
    finally:
        TOL.cluster_rtol = before


def test_bad_tolerance_is_config_error(tmp_path):
    from hyperdecay.tolerances import TOL
    saved = dict(vars(TOL))
    try:
        for override in ("nope=1", "path_agreement_rtol=1", "confluence_rtol=1e-5", "abscissa_margin=1e-10",
                         "interlace_margin_rtol=nan", "tail_fraction=nan", "cluster_rtol=inf",
                         "root_residual_rtol=-1"):
            assert main(["--out", str(tmp_path), "--tol", override, "classify", "mgt"]) == 1, override
        assert vars(TOL) == saved
    finally:
        vars(TOL).update(saved)


def test_simulate_command_small(tmp_path, capsys):
    rc = main(["--out", str(tmp_path), "simulate", "mgt",
               "--tmin", "10", "--tmax", "1000", "--points", "9"])
    assert rc == 0
    rows = (tmp_path / "mgt_simulate.csv").read_text().splitlines()
    assert rows[0] == "t,value"
    assert len(rows) == 10
    fit = json.loads((tmp_path / "mgt_simulate_fit.json").read_text())
    assert fit["fitted_slope"] < 0


def test_profile_command(tmp_path, capsys):
    rc = main(["--out", str(tmp_path), "profile", "mgt",
               "--tmin", "100", "--tmax", "10000", "--points", "13"])
    assert rc == 0
    fit = json.loads((tmp_path / "mgt_profile_fit.json").read_text())
    assert -0.65 <= fit["improvement"] <= -0.35
    assert (tmp_path / "mgt_profile_solution.csv").exists()
    assert (tmp_path / "mgt_profile_gap.csv").exists()


def test_semilinear_command_small(tmp_path, capsys):
    # a small datum decays; a large mgt datum with p = 2 grows by T = 3 and blows up near t = 3.09
    large = ["mgt", "--p", "2", "--dim", "1", "--modes", "64", "--box", "20", "--amplitude", "30",
             "--dt", "0.05"]
    for argv, verdict in ((["fourth_order_weak", "--p", "3", "--dim", "1", "--modes", "64", "--box", "30",
                            "--amplitude", "1e-3", "--T", "5", "--dt", "0.25"], "decaying"),
                          (large + ["--T", "3"], "growing"),
                          (large + ["--T", "6"], "blowup")):
        out = tmp_path / verdict
        assert main(["--out", str(out), "semilinear", *argv]) == 0
        doc = json.loads((out / f"{argv[0]}_semilinear.json").read_text())
        assert doc["verdict"] == verdict
        rows = (out / f"{argv[0]}_semilinear.csv").read_text().splitlines()
        assert doc["accepted_steps"] == len(rows) - 2  # header and t = 0
    assert 3.0 < doc["blowup_time"] < 3.2


def test_semilinear_overflowing_l2_norm_is_no_row(tmp_path, capsys):
    """A step whose L2 norm overflows from a finite state writes no row, as a non-finite state does."""
    assert main(["--out", str(tmp_path), "semilinear", "mgt", "--p", "300", "--dim", "1", "--modes", "32",
                 "--box", "20", "--amplitude", "1000", "--dt", "0.1", "--T", "1"]) == 0
    doc = json.loads((tmp_path / "mgt_semilinear.json").read_text())
    rows = (tmp_path / "mgt_semilinear.csv").read_text().splitlines()
    assert doc["verdict"] == "blowup" and doc["blowup_time"] == 0.2
    assert doc["accepted_steps"] == len(rows) - 2 == 1
    assert doc["final_l2"] == float(rows[-1].split(",")[1]) == 6.446335005603875


def test_semilinear_readme_line_builds_3d_preset_in_2d(tmp_path, capsys):
    rc = main(["--out", str(tmp_path), "semilinear", "mgt", "--p", "5", "--dim", "2",
               "--amplitude", "1e-3", "--modes", "32", "--T", "1"])
    assert rc == 0
    doc = json.loads((tmp_path / "mgt_semilinear.json").read_text())
    assert doc["verdict"] == "decaying"
    # a non-isotropic preset keeps its own dimension
    assert main(["--out", str(tmp_path), "semilinear", "anisotropic_elastic_2d", "--p", "5",
                 "--dim", "1", "--modes", "32", "--T", "1"]) == 1
    assert "stack dim 2 != run dim 1" in capsys.readouterr().err
    # and so does a model file
    path = tmp_path / "mgt3.json"
    save_model(mgt_stack(dim=3), path, "mgt3")
    assert main(["--out", str(tmp_path), "semilinear", str(path), "--p", "5", "--dim", "2",
                 "--modes", "32", "--T", "1"]) == 1
    assert "stack dim 3 != run dim 2" in capsys.readouterr().err


def test_semilinear_dimension_below_one_is_a_config_error(tmp_path, capsys):
    """`HomogeneousSymbol.isotropic` checks dim >= 1 before it recurses over compositions of dim parts."""
    for dim in ("0", "-1"):
        assert main(["--out", str(tmp_path), "semilinear", "mgt", "--p", "3", "--dim", dim]) == 1, dim
        assert "spatial dimension must be >= 1" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_asymptotics_direction_flag(tmp_path):
    rc = main(["--out", str(tmp_path), "asymptotics", "anisotropic_elastic_2d",
               "--regime", "high", "--direction", "0.70710678118654752,0.70710678118654752"])
    assert rc == 0
    rc = main(["--out", str(tmp_path), "asymptotics", "anisotropic_elastic_2d",
               "--direction", "1,0,0"])
    assert rc == 1  # wrong component count


def test_non_finite_inputs_are_config_errors(tmp_path, capsys):
    """A non-finite direction, model coefficient or norm exits 1 with a message,
    not with a root-finding traceback or a run that reads as an underflow."""
    for argv in (["anisotropic_elastic_2d", "--direction", "nan,1"], ["mgt", "--direction", "inf,0,0"]):
        assert main(["--out", str(tmp_path), "asymptotics"] + argv) == 1, argv
        assert "non-finite component" in capsys.readouterr().err
    model = json.loads(json.dumps(stack_to_dict(mgt_stack(), "mgt")))
    model["symbols"][0]["terms"][0]["c"] = float("nan")
    mpath = tmp_path / "nan_model.json"
    mpath.write_text(json.dumps(model))
    for cmd in ("classify", "simulate"):
        assert main(["--out", str(tmp_path), cmd, str(mpath)]) == 1, cmd
        assert "has the non-finite coefficient nan" in capsys.readouterr().err
    data = {"profiles": [{"kind": "zero"}, {"kind": "zero"},
                         {"kind": "gaussian", "amplitude": float("nan")}]}
    dpath = tmp_path / "nan_data.json"
    dpath.write_text(json.dumps(data))
    assert main(["--out", str(tmp_path), "simulate", "mgt", "--data", str(dpath)]) == 1
    assert "a gaussian profile needs a finite amplitude, got nan" in capsys.readouterr().err
    # a ring of width 0 is refused where it is built, by `simulate` and `profile` alike
    data["profiles"][2] = {"kind": "ring", "r0": 1.0, "sigma": 0}
    dpath.write_text(json.dumps(data))
    for cmd in ("simulate", "profile"):
        assert main(["--out", str(tmp_path), cmd, "mgt", "--data", str(dpath)]) == 1, cmd
        assert "a ring profile needs a finite r0 and a finite sigma > 0, got r0 = 1.0 and sigma = 0.0" \
            in capsys.readouterr().err
    # a grid sample has no check of its own and reaches the norm's NaN check
    values = np.exp(-0.5 * default_rho_grid() ** 2)
    values[100] = np.nan
    data["profiles"][2] = {"kind": "grid", "values": list(values)}
    dpath.write_text(json.dumps(data))
    assert main(["--out", str(tmp_path), "simulate", "mgt", "--data", str(dpath)]) == 1
    assert "integrand is NaN" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["nan_data.json", "nan_model.json"]


def test_reproduce_second_preset(tmp_path):
    assert main(["--out", str(tmp_path), "reproduce", "fourth_order_weak"]) == 0
    assert main(["--out", str(tmp_path), "reproduce", "not_a_preset"]) == 1


def test_data_file_parsing(tmp_path, capsys):
    data = {"profiles": [{"kind": "zero"}, {"kind": "ring", "r0": 1.0, "sigma": 0.2},
                         {"kind": "gaussian", "amplitude": 2.0, "width": 0.5}]}
    dpath = tmp_path / "data.json"
    dpath.write_text(json.dumps(data))
    rc = main(["--out", str(tmp_path), "simulate", "mgt", "--data", str(dpath),
               "--tmin", "10", "--tmax", "100", "--points", "5"])
    assert rc == 0
    bad = {"profiles": [{"kind": "zero"}]}
    dpath.write_text(json.dumps(bad))
    assert main(["--out", str(tmp_path), "simulate", "mgt", "--data", str(dpath)]) == 1
    # a grid profile without zero_value leaves the moment undefined
    rho = default_rho_grid()
    grid = {"profiles": [{"kind": "zero"}, {"kind": "zero"},
                         {"kind": "grid", "values": list(np.exp(-0.5 * rho**2))}]}
    dpath.write_text(json.dumps(grid))
    out = tmp_path / "grid"
    assert main(["--out", str(out), "profile", "mgt", "--data", str(dpath),
                 "--tmin", "10", "--tmax", "100", "--points", "5"]) == 1
    assert "slot 2" in capsys.readouterr().err
    assert not (out / "mgt_profile_fit.json").exists()


def test_data_file_is_checked_where_it_is_read(tmp_path, capsys):
    """A data file of the wrong shape is a config error naming the path of what is wrong."""
    ring = {"kind": "ring", "r0": 1.0}
    cases = [({"profiles": 3}, "profiles: not a list, got 3"),
             ([], "profiles: missing"),
             ({"data": []}, "profiles: missing"),
             ({"profiles": [{"kind": "zero"}, ring, {"kind": "gaussian"}]}, "profiles[1].sigma: missing"),
             ({"profiles": [{"kind": "zero"}, 2, {"kind": "gaussian"}]}, "profiles[1]: not an object, got 2"),
             ({"profiles": [{}, ring, {"kind": "gaussian"}]}, "profiles[0].kind: missing"),
             ({"profiles": [{"kind": "wave"}, ring, {"kind": "gaussian"}]},
              "profiles[0].kind: unknown profile kind 'wave'"),
             ({"profiles": [{"kind": []}, ring, {"kind": "gaussian"}]},
              "profiles[0].kind: unknown profile kind []"),
             ({"profiles": [{"kind": "zero"}, dict(ring, r0=True, sigma=0.2), {"kind": "gaussian"}]},
              "profiles[1].r0: not a number, got True"),
             ({"profiles": [{"kind": "zero"}, dict(ring, sigma="0.2"), {"kind": "gaussian"}]},
              "profiles[1].sigma: not a number, got '0.2'"),
             ({"profiles": [{"kind": "zero"}, {"kind": "zero"}, {"kind": "gaussian", "width": None}]},
              "profiles[2].width: not a number, got None"),
             ({"profiles": [{"kind": "zero"}, {"kind": "zero"}, {"kind": "grid", "values": 1.0}]},
              "profiles[2].values: not a list, got 1.0"),
             ({"profiles": [{"kind": "zero"}, {"kind": "zero"}, {"kind": "grid", "values": [0.5, "x"]}]},
              "profiles[2].values[1]: not a number, got 'x'"),
             # the count is checked before the entries, in the words a digest run prints
             ({"profiles": [{"kind": "zero"}, ring]}, "data file has 2 profiles, model needs 3")]
    dpath = tmp_path / "data.json"
    for doc, message in cases:
        dpath.write_text(json.dumps(doc))
        for cmd in ("simulate", "profile"):
            assert main(["--out", str(tmp_path / "out"), cmd, "mgt", "--data", str(dpath)]) == 1, doc
            assert f"error: {message}" in capsys.readouterr().err, doc
    assert not (tmp_path / "out").exists()


def test_gaussian_width_must_be_positive(tmp_path, capsys):
    """A width of 0 made the data zero and a negative width negated them (width^n), both with exit 0."""
    dpath = tmp_path / "data.json"
    for width in (0, -1):
        dpath.write_text(json.dumps({"profiles": [{"kind": "zero"}, {"kind": "zero"},
                                                  {"kind": "gaussian", "width": width}]}))
        out = tmp_path / f"width_{width}"
        for cmd in ("simulate", "profile"):
            assert main(["--out", str(out), cmd, "mgt", "--data", str(dpath)]) == 1, (cmd, width)
            err = capsys.readouterr().err
            assert f"a gaussian profile needs a finite width > 0, got {float(width)}" in err
        assert not out.exists()


def test_reproduce_writes_what_the_subcommands_write(tmp_path):
    """`reproduce` and the single subcommands share one writer per output."""
    assert main(["--out", str(tmp_path / "all"), "reproduce", "mgt"]) == 0
    runs = {"classify": ["classify", "mgt"],
            "low": ["asymptotics", "mgt", "--regime", "low"],
            "high": ["asymptotics", "mgt", "--regime", "high"],
            "simulate": ["simulate", "mgt"],
            "profile": ["profile", "mgt"]}
    for label, argv in runs.items():
        assert main(["--out", str(tmp_path / label)] + argv) == 0
    for label, fname in [("classify", "mgt_classify.json"), ("low", "mgt_asymptotics_low.csv"),
                         ("high", "mgt_asymptotics_high.csv"), ("simulate", "mgt_simulate.csv"),
                         ("simulate", "mgt_simulate_fit.json"), ("profile", "mgt_profile_gap.csv")]:
        assert (tmp_path / label / fname).read_bytes() == (tmp_path / "all" / fname).read_bytes(), fname
    # the profile's solution series is the one `simulate` writes
    assert ((tmp_path / "profile" / "mgt_profile_solution.csv").read_bytes()
            == (tmp_path / "simulate" / "mgt_simulate.csv").read_bytes())
