import json

from hyperdecay.cli import main
from hyperdecay.presets import mgt_stack
from hyperdecay.symbols import HomogeneousSymbol, OperatorStack, save_model


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


def test_classify_json_has_no_infinite_margin(tmp_path):
    # P_3 = lambda^3 + lambda |xi|^2 has roots 0, +-i|xi|: every interlacing row fails
    # with margin -inf, which strict JSON cannot carry
    lam3 = {(3, (0, 0)): 1.0, (1, (2, 0)): 1.0, (1, (0, 2)): 1.0}
    lam2 = {(2, (0, 0)): 1.0, (0, (2, 0)): 1.0, (0, (0, 2)): 2.0}
    stack = OperatorStack.build([HomogeneousSymbol(3, 2, lam3), HomogeneousSymbol(2, 2, lam2),
                                 HomogeneousSymbol(1, 2, {(1, (0, 0)): 1.0})])
    save_model(stack, tmp_path / "elliptic2d.json", "elliptic2d")
    assert main(["--out", str(tmp_path), "classify", str(tmp_path / "elliptic2d.json")]) == 2

    def reject(name):
        raise ValueError(f"non-JSON constant {name}")

    doc = json.loads((tmp_path / "elliptic2d_classify.json").read_text(), parse_constant=reject)
    assert doc["min_margin"] is None
    assert doc["interlacing_upper"]["margin"] is None


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
    assert main(["--out", str(tmp_path), "--tol", "nope=1", "classify", "mgt"]) == 1


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
    rc = main(["--out", str(tmp_path), "semilinear", "fourth_order_weak",
               "--p", "3", "--dim", "1", "--modes", "64", "--box", "30",
               "--amplitude", "1e-3", "--T", "5", "--dt", "0.25"])
    assert rc == 0
    doc = json.loads((tmp_path / "fourth_order_weak_semilinear.json").read_text())
    assert doc["verdict"] == "decaying"
    rows = (tmp_path / "fourth_order_weak_semilinear.csv").read_text().splitlines()
    assert doc["accepted_steps"] == len(rows) - 2  # header and t = 0


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


def test_asymptotics_direction_flag(tmp_path):
    rc = main(["--out", str(tmp_path), "asymptotics", "anisotropic_elastic_2d",
               "--regime", "high", "--direction", "0.70710678118654752,0.70710678118654752"])
    assert rc == 0
    rc = main(["--out", str(tmp_path), "asymptotics", "anisotropic_elastic_2d",
               "--direction", "1,0,0"])
    assert rc == 1  # wrong component count


def test_reproduce_second_preset(tmp_path):
    assert main(["--out", str(tmp_path), "reproduce", "fourth_order_weak"]) == 0
    assert main(["--out", str(tmp_path), "reproduce", "not_a_preset"]) == 1


def test_data_file_parsing(tmp_path):
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
