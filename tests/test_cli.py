import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from beamest.arrays import theta_slope_deg_per_rad
from beamest.channel import spatial_frequency
from beamest import ConfigurationError
from beamest.cli import EXIT_CONFIG, EXIT_OK, main
from beamest.harness import config_from_dict, run_trial


def write_cfg(tmp_path, **kw):
    data = {"scenario": {"n_nlos": 1}, "trials": 2, "snr_sweep_db": [10.0],
            "run_id": "cli"}
    data.update(kw)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data))
    return str(path)


def test_no_args_prints_usage(capsys):
    assert main([]) == EXIT_CONFIG
    assert "usage" in capsys.readouterr().out.lower()


def test_bad_config_path_is_config_error(capsys):
    assert main(["run", "--config", "/nonexistent.json"]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_unknown_config_key_is_config_error(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"nope": 1}))
    assert main(["run", "--config", str(path)]) == EXIT_CONFIG
    assert "unknown" in capsys.readouterr().err


@pytest.mark.parametrize("data, key", [
    ({"seed": "abc"}, "seed"),
    ({"scenario": {"n_nlos": "2"}}, "scenario.n_nlos"),
    ({"scenario": {"bandwidth_hz": "wide"}}, "scenario.bandwidth_hz"),
    ({"array": {"m": 16.0}}, "array.m"),
    ({"trials": 2.5}, "trials"),
    ({"trials": True}, "trials"),
    ({"repetitions_per_beam": 1.5}, "repetitions_per_beam"),
    ({"snr_sweep_db": [0, "high"]}, "snr_sweep_db"),
    ({"snr_sweep_db": "10"}, "snr_sweep_db"),
    ({"scenario": {"ple_los": "x"}}, "scenario.ple_los"),
    ({"scenario": {"ple_nlos": True}}, "scenario.ple_nlos"),
    ({"scenario": {"d0_m": "x"}}, "scenario.d0_m"),
    ({"scenario": {"noise_var": None}}, "scenario.noise_var"),
    ({"scenario": {"theta_range_deg": ["a", "b"]}}, "scenario.theta_range_deg"),
    ({"scenario": {"delta_nlos_range_m": [4.5, "24"]}}, "scenario.delta_nlos_range_m"),
    ({"scenario": {"d_los_range_m": [30.0, 45.0, 60.0]}}, "scenario.d_los_range_m"),
    ({"run_id": 5}, "run_id"),
    ({"output_path": ["a.csv"]}, "output_path"),
    ({"emit_feedback_log": "yes"}, "emit_feedback_log"),
    ({"emit_feedback_log": 1}, "emit_feedback_log"),
    ({"cazac": {"pulse_halfwidth": True}}, "cazac.pulse_halfwidth"),
    ({"cazac": {"rolloff": True}}, "cazac.rolloff"),
    ({"coarse": {"p_fa": "0.1"}}, "coarse.p_fa"),
    ({"coarse": {"v": True}}, "coarse.v"),
    ({"sage": {"beta": True}}, "sage.beta"),
    ({"sage": {"gamma_stop": True}}, "sage.gamma_stop"),
    ({"sage": {"tau_window_symbols": True}}, "sage.tau_window_symbols"),
    ({"sage": {"mu_window": True}}, "sage.mu_window"),
    ({"sage": {"refine_tol": True}}, "sage.refine_tol"),
    ({"array": {"m": True}}, "array.m"),
    # JSON spells NaN and Infinity, and a non-finite setting ran on silently
    ({"scenario": {"noise_var": float("nan")}}, "scenario.noise_var"),
    ({"sage": {"refine_tol": float("inf")}}, "sage.refine_tol"),
    ({"sage": {"mu_window": float("inf")}}, "sage.mu_window"),
    ({"coarse": {"v": float("inf")}}, "coarse.v"),
    ({"scenario": {"d_los_range_m": [30.0, float("inf")]}}, "scenario.d_los_range_m"),
    ({"snr_sweep_db": [0.0, float("nan")]}, "snr_sweep_db"),
    ({"snr_sweep_db": [float("-inf")]}, "snr_sweep_db"),
    ({"seed": -1}, "scenario.seed"),
    ({"scenario": {"seed": -1}}, "scenario.seed"),
    # ranges the model cannot represent: a reflected path ahead of the
    # line-of-sight path, and departure angles that alias
    ({"scenario": {"delta_nlos_range_m": [-12.0, -6.0]}}, "scenario.delta_nlos_range_m"),
    ({"scenario": {"delta_nlos_range_m": [-1.0, 24.0]}}, "scenario.delta_nlos_range_m"),
    ({"scenario": {"theta_range_deg": [100.0, 150.0]}}, "scenario.theta_range_deg"),
    ({"scenario": {"theta_range_deg": [-95.0, 60.0]}}, "scenario.theta_range_deg"),
    ({"scenario": {"theta_range_deg": [0.0, 90.5]}}, "scenario.theta_range_deg"),
    # the endfire angles themselves: -90 and +90 share one spatial frequency
    ({"scenario": {"theta_range_deg": [-90.0, 60.0]}}, "scenario.theta_range_deg"),
    ({"scenario": {"theta_range_deg": [0.0, 90.0]}}, "scenario.theta_range_deg"),
    # a half-width past pi wraps the angle window onto itself
    ({"sage": {"mu_window": 3.2}}, "sage.mu_window"),
])
def test_wrongly_typed_value_is_config_error(tmp_path, capsys, data, key):
    with pytest.raises(ConfigurationError, match=re.escape(key)):
        config_from_dict(data)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "r.csv")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and key in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["crlb", "--out", "x.csv"], ["crlb", "--trials", "3"], ["crlb", "--threads", "7"],
    ["demo", "--out", "x.csv"], ["demo", "--trials", "3"], ["demo", "--threads", "2"],
    ["lut", "--seed", "1"], ["lut", "--snr", "0"], ["lut", "--trials", "3"],
    ["lut", "--threads", "2"], ["run", "--bogus"], ["bogus"],
])
def test_flag_the_subcommand_does_not_read_is_usage_error(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "usage:" in captured.err and not captured.out
    assert not list(tmp_path.iterdir())


def test_subcommand_help_lists_only_its_flags(capsys):
    assert main(["lut", "--help"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "--out" in out and "--seed" not in out and "--threads" not in out


def test_lut_row_count(tmp_path):
    out = tmp_path / "lut.csv"
    assert main(["lut", "--config", "default", "--out", str(out)]) == EXIT_OK
    lines = out.read_text().splitlines()
    assert len(lines) == 101 + 2  # header plus K+1 ratios
    assert lines[0] == "l,mu_offset_rad,ratio"
    assert lines[1].endswith("inf")
    assert lines[-1].endswith("0")


def test_run_produces_csv_and_meta(tmp_path):
    cfg = write_cfg(tmp_path, output_path=str(tmp_path / "res.csv"))
    assert main(["run", "--config", cfg]) == EXIT_OK
    text = (tmp_path / "res.csv").read_text().splitlines()
    assert text[0] == "# beamest-results v1"
    # one row per (snr, parameter, path class) after the schema+header lines
    assert len(text) == 2 + 1 * 4 * 2
    assert (tmp_path / "res.csv.meta").exists()


@pytest.mark.parametrize("threads", [1, 2])
def test_run_meta_records_wall_time_and_workers(tmp_path, threads):
    cfg = write_cfg(tmp_path, output_path=str(tmp_path / "res.csv"))
    assert main(["run", "--config", cfg, "--threads", str(threads)]) == EXIT_OK
    meta = json.loads((tmp_path / "res.csv.meta").read_text())
    assert meta["threads"] == threads
    assert isinstance(meta["wall_s"], float) and meta["wall_s"] > 0


def test_run_snr_and_trials_overrides(tmp_path):
    cfg = write_cfg(tmp_path, output_path=str(tmp_path / "res.csv"))
    assert main(["run", "--config", cfg, "--snr", "0,10", "--trials", "1"]) == EXIT_OK
    text = (tmp_path / "res.csv").read_text().splitlines()
    assert len(text) == 2 + 2 * 4 * 2


def test_demo_deterministic(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    assert main(["demo", "--config", cfg, "--seed", "42"]) == EXIT_OK
    first = capsys.readouterr().out
    assert main(["demo", "--config", cfg, "--seed", "42"]) == EXIT_OK
    second = capsys.readouterr().out
    assert first == second
    assert "truth paths" in first
    assert "refined estimate" in first
    # the printed gains are the trial record's combined gains sqrt(P_T) * alpha
    with open(cfg) as fh:
        rec = run_trial(config_from_dict(dict(json.load(fh), seed=42)), 0, 0)
    printed = [line.rsplit("|gain| ", 1)[1] for line in first.splitlines() if "|gain|" in line]
    gains = [g for _, g, _ in rec.truth] + [a for _, _, a in rec.refined]
    assert rec.refined and printed == [f"{abs(g):.4f}" for g in gains]


def test_crlb_subcommand(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    assert main(["crlb", "--config", cfg, "--seed", "3"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "path,parameter,truth,sqrt_crlb" in out
    # 4 parameters per path, 2 paths
    assert sum(1 for line in out.splitlines() if line and line[0].isdigit()) == 8


@pytest.mark.parametrize("seed", [0, 3, 17])
def test_crlb_truths_are_the_trial_truth(tmp_path, capsys, seed):
    # the bounded realization is the harness's trial 0 at the first SNR point
    cfg = write_cfg(tmp_path, snr_sweep_db=[-20.0, 0.0])
    assert main(["crlb", "--config", cfg, "--seed", str(seed)]) == EXIT_OK
    printed = [line.split(",")[:3] for line in capsys.readouterr().out.splitlines()
               if line and line[0].isdigit()]
    with open(cfg) as fh:
        rec = run_trial(config_from_dict(dict(json.load(fh), seed=seed)), 0, 0)
    expected = []
    for r, (theta, gain, tau) in enumerate(rec.truth):
        for label, value in (("gain_re", gain.real), ("gain_im", gain.imag),
                             ("mu_rad", spatial_frequency(theta)), ("tau_symbols", tau)):
            expected.append([str(r), label, format(value, ".10g")])
    assert printed == expected


def test_crlb_bounds_at_the_noise_after_averaging_repetitions(tmp_path, capsys):
    # averaging 4 pilot repetitions leaves a quarter of the noise, so every
    # printed bound halves, and each must equal the one the trial records
    def bounds(repetitions):
        cfg = write_cfg(tmp_path, repetitions_per_beam=repetitions, snr_sweep_db=[0.0])
        assert main(["crlb", "--config", cfg, "--seed", "3"]) == EXIT_OK
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()
                if line and line[0].isdigit()]
        with open(cfg) as fh:
            rec = run_trial(config_from_dict(dict(json.load(fh), seed=3)), 0, 0)
        return {(int(r), label): float(b) for r, label, _, b in rows}, rec

    single, _ = bounds(1)
    printed, rec = bounds(4)
    assert printed.keys() == single.keys()
    for key, bound in printed.items():
        assert bound == pytest.approx(single[key] / 2.0, rel=1e-9)
    for r, ((theta, gain, _), var) in enumerate(zip(rec.truth, rec.crlb_vars)):
        slope = theta_slope_deg_per_rad(theta)
        assert printed[r, "tau_symbols"] ** 2 == pytest.approx(var["delay_ml_sym"], rel=1e-9)
        assert (printed[r, "mu_rad"] * slope) ** 2 == pytest.approx(var["aod_ml_deg"], rel=1e-9)
        gain_var = printed[r, "gain_re"] ** 2 + printed[r, "gain_im"] ** 2
        assert gain_var / abs(gain) ** 2 == pytest.approx(var["gain_ml_rel"], rel=1e-9)


def test_bad_snr_list_is_config_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    assert main(["run", "--config", cfg, "--snr", "abc"]) == EXIT_CONFIG


@pytest.mark.parametrize("argv, key", [
    (["crlb", "--snr", "nan"], "snr_sweep_db"),
    (["run", "--snr", "0,inf"], "snr_sweep_db"),
    (["run", "--seed", "-1"], "seed"),
])
def test_non_finite_snr_or_negative_seed_flag_is_config_error(tmp_path, capsys, argv, key):
    cfg = write_cfg(tmp_path, output_path=str(tmp_path / "r.csv"))
    assert main([*argv, "--config", cfg]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err.startswith("config error:") and key in captured.err
    assert not list(tmp_path.glob("r.csv*"))


@pytest.mark.parametrize("command", ["crlb", "demo"])
def test_one_point_subcommand_refuses_an_snr_sweep(tmp_path, capsys, command):
    # crlb and demo bound or refine one observation; a second point was
    # silently dropped
    cfg = write_cfg(tmp_path)
    assert main([command, "--config", cfg, "--seed", "3", "--snr", "0,10"]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert not captured.out
    assert captured.err.startswith("config error: ") and "one SNR point" in captured.err
    assert main([command, "--config", cfg, "--seed", "3", "--snr", "0"]) == EXIT_OK
    assert main([command, "--help"]) == EXIT_OK
    assert "one SNR point" in " ".join(capsys.readouterr().out.split())


def test_unwritable_output_is_runtime_error(tmp_path, capsys):
    from beamest.cli import EXIT_RUNTIME
    cfg = write_cfg(tmp_path, trials=1)
    code = main(["run", "--config", cfg, "--out", str(tmp_path / "no" / "dir" / "x.csv")])
    assert code == EXIT_RUNTIME
    assert "error" in capsys.readouterr().err


def test_threads_env_var_honored(tmp_path, capsys, monkeypatch):
    cfg = write_cfg(tmp_path, trials=4, output_path=str(tmp_path / "a.csv"))
    monkeypatch.setenv("THREADS", "2")
    assert main(["run", "--config", cfg]) == EXIT_OK
    assert "threads=2" in capsys.readouterr().out
    # the CLI flag wins over the environment
    assert main(["run", "--config", cfg, "--threads", "1"]) == EXIT_OK
    assert "threads=1" in capsys.readouterr().out


@pytest.mark.parametrize("flag, env", [("0", None), ("-2", None), (None, "0"), (None, "-1")])
def test_non_positive_threads_is_config_error(tmp_path, capsys, monkeypatch, flag, env):
    cfg = write_cfg(tmp_path, trials=1, output_path=str(tmp_path / "a.csv"))
    if env is None:
        monkeypatch.delenv("THREADS", raising=False)
    else:
        monkeypatch.setenv("THREADS", env)
    argv = ["run", "--config", cfg] + (["--threads", flag] if flag is not None else [])
    assert main(argv) == EXIT_CONFIG
    assert "config error: " + ("--threads" if flag is not None else "THREADS") \
        in capsys.readouterr().err
    assert not (tmp_path / "a.csv").exists()


def test_array_size_above_pilot_length_is_config_error(tmp_path, capsys):
    # fewer beams than pilot symbols run; more beams than pilot shifts do not
    out = tmp_path / "r.csv"
    cfg = write_cfg(tmp_path, array={"m": 8}, output_path=str(out))
    assert main(["run", "--config", cfg]) == EXIT_OK
    assert out.exists()
    out.unlink()
    cfg = write_cfg(tmp_path, array={"m": 32}, output_path=str(out))
    assert main(["run", "--config", cfg]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "array size 32" in err
    assert not out.exists()


@pytest.mark.parametrize("spacing", [0.5, 0.25, 1.0])
def test_non_half_wavelength_spacing_is_config_error(tmp_path, capsys, spacing):
    # angles are read back through theta = arcsin(mu / pi), which holds at
    # half-wavelength spacing only, so the spacing is no setting: the key is
    # unknown at any value, 0.5 included
    out = tmp_path / "r.csv"
    cfg = write_cfg(tmp_path, array={"m": 16, "spacing_over_lambda": spacing}, trials=20,
                    snr_sweep_db=[30.0], output_path=str(out))
    assert main(["run", "--config", cfg]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "array.spacing_over_lambda" in err
    assert not out.exists()


def test_module_entry_point_runs_from_a_checkout(tmp_path):
    # python -m beamest with src/ on the path, no installed console script
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-m", "beamest", "--help"], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == EXIT_OK, proc.stderr
    assert proc.stdout.startswith("usage: beamest")


def test_importing_the_package_leaves_out_the_process_pool(tmp_path):
    # the pool machinery loads only when a sweep starts one: every CLI call
    # and worker process imports beamest, and most never need it
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    code = "import sys, beamest.cli; print('concurrent.futures' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
