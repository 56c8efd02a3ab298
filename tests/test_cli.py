"""Command-line interface: subcommands, exit codes, output routing."""

import json
import subprocess
import sys

import pytest

from coneapprox.cli import main


@pytest.fixture()
def run(tmp_path, capsys):
    def _run(argv, cfg=None, name="cfg.json"):
        if cfg is not None:
            path = tmp_path / name
            path.write_text(json.dumps(cfg))
            argv = argv + ["--config", str(path)]
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return _run


def _model_1d(rate=2.0):
    return {"d": 1, "w": [1.0], "s": {"kind": "algebraic", "r": rate}}


def _approx_cfg(**kw):
    cfg = {
        "algorithm": "pilot",
        "model": _model_1d(),
        "space": {"ratio_exponent": 2.0, "solution_exponent": 1.0},
        "tolerance": 1e-3,
        "coefficients": {"table": {}, "default": 0.0},
        "pilot": {"size": 4, "inflation": 1.5},
    }
    cfg.update(kw)
    return cfg


def _infer_cfg(**kw):
    cfg = {
        "dimension": 2,
        "space": {"ratio_exponent": "inf", "solution_exponent": 1.0},
        "coefficients": {"generator": {"seed": 3}},
    }
    cfg.update(kw)
    return cfg


def _diagnose_tracking_cfg(**regularity):
    return {
        "model": {"d": 2, "w": [1.0, 0.5], "s": {"kind": "algebraic", "r": 2.0}},
        "space": {"ratio_exponent": 2.0, "solution_exponent": 1.0},
        "tolerance": 1e-2,
        "tracking": {"start": 2, "inflation": 2.0, "decay": 0.5, "regularity": regularity},
    }


# --- approx -------------------------------------------------------------------------


def test_approx_pilot_zero_function(run):
    code, out, err = run(["approx"], _approx_cfg())
    assert code == 0
    assert err == ""
    outcome = json.loads(out)
    assert outcome["stopped_by"] == "ToleranceMet"
    assert outcome["n_used"] == 4  # just the pilot segment
    assert outcome["final_error_bound"] == 0.0
    assert outcome["cone_violated"] is False


def test_approx_out_file_keeps_stdout_empty(run, tmp_path):
    dest = tmp_path / "outcome.json"
    code, out, err = run(["approx", "--out", str(dest)], _approx_cfg())
    assert code == 0
    assert out == "" and err == ""
    assert json.loads(dest.read_text())["stopped_by"] == "ToleranceMet"


def test_approx_table_coefficients_and_inf_exponent(run):
    cfg = _approx_cfg(
        space={"ratio_exponent": "inf", "solution_exponent": 1.0},
        coefficients={"table": {"1": 0.5}, "default": 0.0},
        tolerance=1e-2,
    )
    code, out, _ = run(["approx"], cfg)
    assert code == 0
    outcome = json.loads(out)
    terms = {tuple(t["k"]): t["coef"] for t in outcome["terms"]}
    assert terms[(1,)] == 0.5


def test_approx_budget_exhausted_exit_code(run):
    cfg = _approx_cfg(
        algorithm="ball", radius=1.0, tolerance=1e-9, budget_cap=5
    )
    del cfg["pilot"]
    code, out, _ = run(["approx"], cfg)
    assert code == 2
    assert json.loads(out)["stopped_by"] == "BudgetExhausted"


def test_approx_tracking_runs(run):
    cfg = _approx_cfg(
        algorithm="tracking",
        tracking={"start": 2, "inflation": 2.0, "decay": 0.5},
    )
    del cfg["pilot"]
    code, out, _ = run(["approx"], cfg)
    assert code == 0
    assert json.loads(out)["n_used"] == 4  # zero function stops at block one


def test_approx_wrong_dimension_table_key(run):
    cfg = _approx_cfg(coefficients={"table": {"1,2": 0.5}, "default": 0.0})
    code, _, err = run(["approx"], cfg)
    assert code == 1
    assert "dimension" in err


def test_approx_unknown_algorithm(run):
    code, _, err = run(["approx"], _approx_cfg(algorithm="magic"))
    assert code == 1
    assert "magic" in err


# --- infer --------------------------------------------------------------------------


def test_infer_fit_only_generator(run):
    cfg = _infer_cfg()
    code, out, _ = run(["infer"], cfg)
    assert code == 0
    fitted = json.loads(out)
    assert fitted == {
        "d": 2,
        "w": [0.5, 1.0],
        "r": 2.0,
        "gamma": [1.0, 1.0, 1.0],
        "objective": 0.16780286824436574,
    }


def test_infer_full_pipeline_with_tolerance(run):
    cfg = _infer_cfg(tolerance=1e-2, inflation=1.1)
    code, out, _ = run(["infer"], cfg)
    assert code == 0
    outcome = json.loads(out)
    assert outcome["stopped_by"] == "ToleranceMet"
    assert outcome["inferred"]["r"] == 3.0  # resolution window takes the faster rate
    assert outcome["final_error_bound"] <= 1e-2


def test_infer_seed_flag_overrides_generator(run):
    cfg = _infer_cfg()
    base = run(["infer"], cfg)
    other = run(["infer", "--seed", "4"], cfg)
    assert base[0] == other[0] == 0
    assert json.loads(base[1]) != json.loads(other[1])


# --- experiment ---------------------------------------------------------------------


def test_experiment_stdout_csv(run):
    cfg = {"dimensions": [2], "tolerances": [0.1], "seeds": 2}
    code, out, err = run(["experiment"], cfg)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == (
        "d,eps,seed,n_used,sup_error,ratio,g_norm_error,inferred_r,status,wall_ms,cone_violated"
    )
    assert len(lines) == 3
    assert lines[1].startswith("2,0.1,0,")
    assert lines[2].startswith("2,0.1,1,")


def test_experiment_out_writes_csv_and_jsonl(run, tmp_path):
    cfg = {"dimensions": [2], "tolerances": [0.1], "seeds": 1}
    base = tmp_path / "results"
    code, out, _ = run(["experiment", "--out", str(base) + ".csv"], cfg)
    assert code == 0
    assert out == ""
    csv_text = (tmp_path / "results.csv").read_text()
    jsonl_text = (tmp_path / "results.jsonl").read_text()
    assert csv_text.splitlines()[0].startswith("d,eps,seed")
    assert json.loads(jsonl_text.splitlines()[0])["seed"] == 0


def test_experiment_rerun_identical_bytes(run, tmp_path):
    cfg = {"dimensions": [2], "tolerances": [0.1, 0.01], "seeds": 2}
    a = run(["experiment"], cfg)
    b = run(["experiment"], cfg)
    assert a == b


def test_experiment_seed_flag_pins_single_seed(run):
    cfg = {"dimensions": [2], "tolerances": [0.1], "seeds": 2}
    code, out, _ = run(["experiment", "--seed", "5"], cfg)
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert lines[1].split(",")[:3] == ["2", "0.1", "5"]


def test_experiment_failed_rows_exit_partial(run):
    cfg = {"dimensions": [2], "tolerances": [0.1], "seeds": 2}
    code, out, err = run(["experiment", "--set", "budget_cap=2"], cfg)
    assert code == 3
    assert "2 of 2 rows failed" in err
    assert all(line.split(",")[8].startswith("failed:")
               for line in out.strip().splitlines()[1:])


def test_experiment_empty_tolerances_usage_error(run):
    code, _, err = run(["experiment"], {"dimensions": [2], "tolerances": [], "seeds": 1})
    assert code == 1
    assert "nonempty" in err


def test_experiment_jobs_flag_accepted(run):
    cfg = {"dimensions": [2], "tolerances": [0.1], "seeds": 1}
    code, out, _ = run(["experiment", "--jobs", "1"], cfg)
    assert code == 0
    assert len(out.strip().splitlines()) == 2


# --- diagnose -----------------------------------------------------------------------


def test_diagnose_full_report(run):
    cfg = {
        "model": {"d": 2, "w": [1.0, 0.5], "s": {"kind": "algebraic", "r": 2.0}},
        "space": {"ratio_exponent": 2.0, "solution_exponent": 1.0},
        "radius": 1.0,
        "tolerance": 1e-2,
        "pilot": {"size": 4, "inflation": 1.5},
        "tracking": {"start": 2, "inflation": 2.0, "decay": 0.5},
        "tractability": {
            "coordinate_rule": {"kind": "algebraic", "rate": 2.0},
            "decay": {"kind": "algebraic", "r": 4.0},
            "eta_grid": [0.3, 0.55, 0.75, 1.0],
        },
    }
    code, out, _ = run(["diagnose"], cfg)
    assert code == 0
    report = json.loads(out)
    assert report["operator_norm"] == pytest.approx(1.6265792134712211, rel=1e-12)
    assert report["ball"]["cost"] == 98
    assert report["pilot"] == {
        "cost": 107,
        "complexity_lower": 22,
        "optimality_factor": pytest.approx(0.14907119849998599, rel=1e-12),
    }
    assert report["tracking"]["cost"] == {"block": 4, "samples": 32}
    tract = report["tractability"]
    assert tract["strongly_tractable"] is True
    assert tract["witness_eta"] == 0.55
    assert tract["eta_infimum"] == 0.5


def test_diagnose_tracking_ceiling_on_slow_decay(run):
    # slow weight and cone decay: the ceiling lies past the tracking tail
    # norm's 65,536-entry walk guard, so it comes from the loose remainder bound
    cfg = {
        "model": {"d": 2, "w": [0.9, 0.7], "s": {"kind": "algebraic", "r": 1.2}},
        "space": {"ratio_exponent": 2.0, "solution_exponent": 1.0},
        "tolerance": 1e-2,
        "tracking": {"start": 1, "inflation": 1.5, "decay": 0.9},
    }
    code, out, _ = run(["diagnose"], cfg)
    assert code == 0
    assert json.loads(out)["tracking"] == {"cost": {"block": 15, "samples": 32768}}


def test_diagnose_ball_cost_deep_in_a_slowly_decaying_stream(run):
    # the ball cost scans 740,858 positions, screening the ones that cannot
    # stop; the tracking ceiling lies past the budget and reads null
    cfg = {
        "model": {"d": 2, "w": [0.9, 0.7], "s": {"kind": "algebraic", "r": 1.2}},
        "space": {"ratio_exponent": 2.0, "solution_exponent": 1.0},
        "radius": 1.0,
        "tolerance": 1e-3,
        "tracking": {"start": 1, "inflation": 1.5, "decay": 0.9},
    }
    code, out, _ = run(["diagnose"], cfg)
    assert code == 0
    report = json.loads(out)
    assert report["ball"] == {"cost": 740858}
    assert report["tracking"] == {"cost": None}


@pytest.mark.parametrize("radius", [-1.0, 0.0, float("inf")])
def test_diagnose_rejects_a_radius_outside_the_positive_reals(run, radius):
    cfg = {
        "model": _model_1d(),
        "space": {"ratio_exponent": 2.0, "solution_exponent": 1.0},
        "radius": radius,
        "tolerance": 1e-2,
    }
    code, out, err = run(["diagnose"], cfg)
    assert code == 1
    assert out == ""
    assert "radius must be positive and finite" in err


def test_diagnose_divergent_norm_reported_as_row(run):
    cfg = {
        "model": _model_1d(rate=0.4),
        "space": {"ratio_exponent": 2.0, "solution_exponent": 1.0},
    }
    code, out, _ = run(["diagnose"], cfg)
    assert code == 0
    report = json.loads(out)
    assert report["operator_norm"]["error"] == "DivergentNormError"


def test_diagnose_flat_weights_not_tractable(run):
    cfg = {
        "model": {"d": 2, "w": [1.0, 1.0], "s": {"kind": "algebraic", "r": 4.0}},
        "space": {"ratio_exponent": 2.0, "solution_exponent": 1.0},
        "tractability": {
            "coordinate_rule": {"kind": "constant"},
            "eta_grid": [0.3, 0.55, 0.75, 1.0],
        },
    }
    code, out, _ = run(["diagnose"], cfg)
    assert code == 0
    tract = json.loads(out)["tractability"]
    assert tract["strongly_tractable"] is False
    assert "2^d" in tract["note"]


# --- enumerate ----------------------------------------------------------------------


def test_enumerate_stdout_csv(run):
    cfg = {"model": {"d": 2, "w": [1.0, 0.5], "s": {"kind": "algebraic", "r": 2.0}},
           "count": 6}
    code, out, _ = run(["enumerate"], cfg)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k_1,k_2,lambda"
    assert lines[1] == "0,0,1.0"
    assert lines[2] == "1,0,1.0"
    assert lines[3] == "0,1,0.5"
    assert len(lines) == 7


def test_enumerate_out_file(run, tmp_path):
    dest = tmp_path / "prefix.csv"
    cfg = {"model": _model_1d(), "count": 3}
    code, out, _ = run(["enumerate", "--out", str(dest)], cfg)
    assert code == 0
    assert out == ""
    assert dest.read_text().splitlines()[0] == "k_1,lambda"


# --- shared flags and errors --------------------------------------------------------


def test_show_config_applies_overrides_without_running(run):
    cfg = _approx_cfg()
    code, out, _ = run(
        ["approx", "--show-config", "--set", "tolerance=0.5",
         "--set", "pilot.size=8"],
        cfg,
    )
    assert code == 0
    shown = json.loads(out)
    assert shown["tolerance"] == 0.5
    assert shown["pilot"]["size"] == 8
    assert shown["budget_cap"] == 1000000  # default made explicit


def test_set_string_fallback(run):
    code, out, _ = run(
        ["approx", "--show-config", "--set", "algorithm=ball", "--set", "radius=2"],
        _approx_cfg(),
    )
    assert code == 0
    shown = json.loads(out)
    assert shown["algorithm"] == "ball"
    assert shown["radius"] == 2


@pytest.mark.parametrize("command, cfg", [
    ("approx", _approx_cfg(coefficients={"generator": {"seed": 7}})),
    ("infer", _infer_cfg(coefficients={"generator": {"seed": 7}})),
])
def test_show_config_shows_the_seed_flag(run, command, cfg):
    code, out, _ = run([command, "--seed", "3", "--show-config"], cfg)
    assert code == 0
    assert json.loads(out)["coefficients"] == {"generator": {"seed": 3}}


def test_infer_show_config_fills_defaults(run):
    cfg = _infer_cfg(
        tolerance=1e-2, candidates={"coordinate_grid": [1, 0.5, 0], "rate_grid": [3, 2]}
    )
    code, out, _ = run(["infer", "--show-config"], cfg)
    assert code == 0
    shown = json.loads(out)
    assert shown["candidates"] == {
        "coordinate_grid": [0.0, 0.5, 1.0], "rate_grid": [2.0, 3.0], "axis_degree_cap": 4,
    }
    assert shown["inflation"] == 1.1
    assert shown["budget_cap"] == 1000000


def test_show_config_rejects_what_the_run_rejects(run):
    tractability = {"coordinate_rule": {"kind": "algebraic", "rate": 2.0}, "eta_grid": [0.5, 0.0]}
    cases = (
        (
            ["approx", "--set", "tracking.kind=arithmetic"],
            _approx_cfg(algorithm="tracking", tracking={"start": 2, "inflation": 2.0, "decay": 0.5}),
            "step >= 1",
        ),
        (["infer"], _infer_cfg(tolerance=1e-2, inflation=1.0), "inflation must exceed 1"),
        (
            ["diagnose"],
            {"model": _model_1d(), "space": {"ratio_exponent": 2.0, "solution_exponent": 1.0},
             "tractability": tractability},
            "witness exponents must be positive",
        ),
    )
    for argv, cfg, complaint in cases:
        assert run(argv, cfg)[0] == 1
        code, out, err = run(argv + ["--show-config"], cfg)
        assert code == 1
        assert out == ""
        assert complaint in err


def test_diagnose_regularity_block(run):
    constants = {"slack": 1.5, "lower_rate": 0.2, "upper_rate": 0.6, "weight_spread": 2.0,
                 "retained_fraction": 0.5}
    code, out, _ = run(["diagnose"], _diagnose_tracking_cfg(**constants))
    assert code == 0
    assert set(json.loads(out)["tracking"]) == {"cost", "complexity_lower", "optimality_factor"}
    del constants["retained_fraction"]
    code, out, err = run(["diagnose", "--show-config"], _diagnose_tracking_cfg(**constants))
    assert code == 1
    assert out == ""
    assert "retained_fraction" in err


@pytest.mark.parametrize("value", ["Infinity", '"INFINITY"'])
def test_set_infinite_ratio_exponent(run, value):
    code, out, _ = run(["approx", "--set", f"space.ratio_exponent={value}"], _approx_cfg())
    assert code == 0
    assert json.loads(out)["stopped_by"] == "ToleranceMet"


def test_experiment_jobs_flag_shown(run):
    cfg = {"dimensions": [2], "tolerances": [0.1], "seeds": 1}
    code, out, _ = run(["experiment", "--jobs", "2", "--show-config"], cfg)
    assert code == 0
    assert json.loads(out)["jobs"] == 2


def test_usage_errors_exit_one(run, tmp_path):
    assert run([])[0] == 1
    assert run(["approx"])[0] == 1  # --config required
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert main(["approx", "--config", str(bad)]) == 1
    assert main(["approx", "--config", str(tmp_path / "missing.json")]) == 1
    code, _, err = run(["approx"], {"algorithm": "ball"})  # missing fields
    assert code == 1
    assert "config error" in err


def test_unknown_flag_exits_one(run):
    assert run(["approx", "--frobnicate"], _approx_cfg())[0] == 1


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "coneapprox.cli"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert "usage" in proc.stderr.lower()
