import json
import math

import pytest

from beamest import (ArrayConfig, CazacConfig, ConfigurationError, PathEstimate,
                     RunConfig, ScenarioConfig, match_paths, run_sweep, run_trial)
from beamest.channel import ChannelRealization, PathParams
from beamest.coarse import mu_to_theta_deg
from beamest import harness
from beamest.harness import (CSV_COLUMNS, PARAMETERS, PATH_CLASSES, CoarseParams,
                             aggregate_snr, config_from_dict, load_config,
                             rows_to_csv_bytes, write_outputs)


def small_cfg(**kw):
    defaults = dict(scenario=ScenarioConfig(n_nlos=1, seed=11),
                    snr_sweep_db=(0.0, 10.0), trials=5, run_id="t")
    defaults.update(kw)
    return RunConfig(**defaults)


def make_truth(params):
    paths = tuple(PathParams(alpha=a, theta_deg=mu_to_theta_deg(mu), mu=mu,
                             tau_symbols=tau) for a, mu, tau in params)
    return ChannelRealization(paths=paths, pt=1.0, noise_var=1.0)


def test_match_identity():
    truth = make_truth([(1 + 0j, 1.0, 0.0), (0.5 + 0j, 2.0, 5.0)])
    ests = [PathEstimate(1.0, 0.0, 1 + 0j), PathEstimate(2.0, 5.0, 0.5 + 0j)]
    assert match_paths(truth, ests) == [(0, 0), (1, 1)]


def test_match_empty_estimates():
    truth = make_truth([(1 + 0j, 1.0, 0.0)])
    assert match_paths(truth, []) == []


def test_match_permutation_invariant():
    truth = make_truth([(1 + 0j, 1.0, 0.0), (0.5 + 0j, 2.0, 5.0), (0.3 + 0j, 0.5, 9.0)])
    ests = [PathEstimate(2.0, 5.02, 0.5 + 0j), PathEstimate(0.5, 8.97, 0.3 + 0j),
            PathEstimate(1.0, 0.01, 1 + 0j)]
    pairs = dict(match_paths(truth, ests))
    assert pairs == {0: 2, 1: 0, 2: 1}


def test_match_gates_far_delays():
    truth = make_truth([(1 + 0j, 1.0, 0.0), (0.5 + 0j, 2.0, 15.4)])
    ests = [PathEstimate(1.0, 0.0, 1 + 0j), PathEstimate(2.1, 0.4, 0.1 + 0j)]
    pairs = match_paths(truth, ests)
    assert (0, 0) in pairs
    assert all(ti != 1 for ti, _ in pairs)


def test_match_prefers_angle_among_near_ties():
    # two estimates a hair apart in delay: the one matching the angle wins
    truth = make_truth([(1 + 0j, 1.0, 0.0)])
    ests = [PathEstimate(2.5, 0.0, 0.1 + 0j), PathEstimate(1.0, 0.013, 1 + 0j)]
    assert match_paths(truth, ests) == [(0, 1)]


def test_run_trial_noiseless_recovery():
    cfg = small_cfg(scenario=ScenarioConfig(n_nlos=1, seed=11, noise_var=0.0),
                    snr_sweep_db=(0.0,), trials=1)
    rec = run_trial(cfg, 0, 0)
    assert rec.r_hat == 2
    assert {m["cls"] for m in rec.matched} == {"los", "nlos"}
    for m in rec.matched:
        assert m["aod_ml_deg2"] < 1e-8
        assert m["delay_ml_sym2"] < 1e-8
        assert m["gain_ml_rel2"] < 1e-12
    assert not rec.fim_invertible  # undefined without noise


def test_run_trial_deterministic():
    cfg = small_cfg()
    a = run_trial(cfg, 1, 3)
    b = run_trial(cfg, 1, 3)
    assert a.matched == b.matched
    assert a.sage_iterations == b.sage_iterations


def test_run_trial_geometry_shared_across_snr():
    cfg = small_cfg()
    a = run_trial(cfg, 0, 2)
    b = run_trial(cfg, 1, 2)
    assert a.crlb_vars and b.crlb_vars
    # same geometry, different transmit power: delay bound scales by 10^(10/20)
    ratio = a.crlb_vars[1]["delay_sym2"] / b.crlb_vars[1]["delay_sym2"]
    assert ratio == pytest.approx(10.0, rel=1e-9)


def test_sweep_row_shape_and_schema():
    cfg = small_cfg(trials=3)
    rows, records = run_sweep(cfg)
    assert len(rows) == len(cfg.snr_sweep_db) * len(PARAMETERS) * len(PATH_CLASSES)
    assert len(records) == len(cfg.snr_sweep_db) * cfg.trials
    for row in rows:
        assert tuple(row.keys()) == tuple(CSV_COLUMNS)
    # delay rows never score the direct path
    for row in rows:
        if row["parameter"] == "delay_ml_sym" and row["path_class"] == "los":
            assert math.isnan(row["rmse"])
            assert row["trials_used"] == 0


def test_sweep_noiseless_ml_rmse_tiny():
    cfg = small_cfg(scenario=ScenarioConfig(n_nlos=1, seed=4, noise_var=0.0),
                    snr_sweep_db=(0.0,), trials=1)
    rows, _ = run_sweep(cfg)
    for row in rows:
        if row["parameter"] == "aod_ml_deg" and row["trials_used"]:
            assert row["rmse"] < 1e-4
        if row["parameter"] == "delay_ml_sym" and row["trials_used"]:
            assert row["rmse"] < 1e-4
        if row["parameter"] == "gain_ml_rel" and row["trials_used"]:
            assert row["rmse"] < 1e-4


def test_sweep_csv_deterministic_and_stable(tmp_path):
    cfg = small_cfg(output_path=str(tmp_path / "a.csv"))
    rows1, recs1 = run_sweep(cfg)
    rows2, recs2 = run_sweep(cfg)
    assert rows_to_csv_bytes(rows1) == rows_to_csv_bytes(rows2)
    path = write_outputs(cfg, rows1, recs1)
    with open(path, "rb") as fh:
        data = fh.read()
    assert data.startswith(b"# beamest-results v1\n")
    header = data.decode().splitlines()[1]
    assert header == ",".join(CSV_COLUMNS)
    meta = json.loads((tmp_path / "a.csv.meta").read_text())
    assert meta["trials"] == cfg.trials
    assert meta["scenario"]["seed"] == 11


def test_sweep_worker_count_invariance(tmp_path):
    cfg = small_cfg(trials=6)
    rows1, _ = run_sweep(cfg, threads=1)
    rows2, _ = run_sweep(cfg, threads=2)
    assert rows_to_csv_bytes(rows1) == rows_to_csv_bytes(rows2)


@pytest.mark.parametrize("kw", [
    {},
    {"repetitions_per_beam": 2},
    {"scenario": ScenarioConfig(n_nlos=1, seed=11, noise_var=0.0)},
], ids=["plain", "repetitions", "noiseless"])
def test_sweep_records_equal_per_point_trials(kw):
    # the trial-major sweep shares one draw, signal and information matrix
    # per trial; it must reproduce run_trial at every point bit for bit
    cfg = small_cfg(trials=4, snr_sweep_db=(0.0, 10.0, 20.0), **kw)
    rows1, recs1 = run_sweep(cfg, threads=1)
    rows2, recs2 = run_sweep(cfg, threads=2)
    assert rows_to_csv_bytes(rows1) == rows_to_csv_bytes(rows2)
    assert recs1 == recs2
    expected, rows = [], []
    for s, snr_db in enumerate(cfg.snr_sweep_db):
        chunk = [run_trial(cfg, s, t) for t in range(cfg.trials)]
        expected.extend(chunk)
        rows.extend(aggregate_snr(cfg.run_id, snr_db, chunk))
    assert recs1 == expected
    assert rows_to_csv_bytes(rows1) == rows_to_csv_bytes(rows)


def test_sweep_draws_each_trial_once(monkeypatch):
    cfg = small_cfg(trials=3, snr_sweep_db=(0.0, 5.0, 10.0, 20.0))
    calls = {"fisher_matrix": 0, "unit_power_signal": 0}

    def counted(name):
        original = getattr(harness, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(harness, name, counted(name))
    harness._trial_signal.cache_clear()   # an earlier test may have left trial 0 cached
    run_sweep(cfg)
    assert calls == {"fisher_matrix": cfg.trials, "unit_power_signal": cfg.trials}


def test_range_lists_give_the_tuple_result():
    # the per-trial draw is cached on the scenario, so list ranges must not break it
    lists = ScenarioConfig(n_nlos=1, seed=11, d_los_range_m=[30.0, 60.0],
                           delta_nlos_range_m=[4.5, 24.0], theta_range_deg=[-60.0, 60.0])
    assert lists == ScenarioConfig(n_nlos=1, seed=11)
    assert run_trial(small_cfg(scenario=lists), 1, 2) == run_trial(small_cfg(), 1, 2)


def test_feedback_log(tmp_path):
    cfg = small_cfg(trials=2, snr_sweep_db=(10.0,), emit_feedback_log=True,
                    output_path=str(tmp_path / "fb.csv"))
    rows, recs = run_sweep(cfg)
    write_outputs(cfg, rows, recs)
    lines = (tmp_path / "fb.csv.feedback.csv").read_text().splitlines()
    assert lines[0] == "run_id,snr_db,trial_id,path,beam_index_bits,delta_ratio"
    assert len(lines) > 1


def test_aggregate_empty_class():
    cfg = small_cfg(scenario=ScenarioConfig(n_nlos=0, seed=1), trials=2,
                    snr_sweep_db=(10.0,))
    rows, _ = run_sweep(cfg)
    nlos_rows = [r for r in rows if r["path_class"] == "nlos"]
    assert all(math.isnan(r["rmse"]) for r in nlos_rows)
    assert all(r["trials_used"] == 0 for r in nlos_rows)


def test_repetitions_average_noise():
    base = small_cfg(snr_sweep_db=(0.0,), trials=1)
    rep = small_cfg(snr_sweep_db=(0.0,), trials=1, repetitions_per_beam=2)
    a = run_trial(base, 0, 0)
    b = run_trial(rep, 0, 0)
    # averaging two pilot blocks halves the bound variances
    assert b.crlb_vars[0]["aod_deg2"] == pytest.approx(a.crlb_vars[0]["aod_deg2"] / 2,
                                                       rel=1e-9)


def test_config_validation_cross_checks():
    with pytest.raises(ConfigurationError):
        RunConfig(trials=0)
    with pytest.raises(ConfigurationError):
        RunConfig(snr_sweep_db=())
    with pytest.raises(ConfigurationError):
        RunConfig(scenario=ScenarioConfig(m=8), array=ArrayConfig(m=16))
    with pytest.raises(ConfigurationError):
        RunConfig(cazac=CazacConfig(ts=1e-9))  # inconsistent with 200 MHz


def test_config_from_dict_unknown_keys():
    with pytest.raises(ConfigurationError, match="unknown config key"):
        config_from_dict({"bogus": 1})
    with pytest.raises(ConfigurationError, match="scenario.bogus"):
        config_from_dict({"scenario": {"bogus": 1}})


def test_config_file_round_trip(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "run_id": "exp1",
        "seed": 99,
        "trials": 7,
        "snr_sweep_db": [0, 10],
        "scenario": {"n_nlos": 1},
        "sage": {"gamma_stop": 1e-4},
    }))
    cfg = load_config(str(path))
    assert cfg.run_id == "exp1"
    assert cfg.scenario.seed == 99
    assert cfg.trials == 7
    assert cfg.snr_sweep_db == (0.0, 10.0)
    assert cfg.sage.gamma_stop == 1e-4


def test_config_file_errors(tmp_path):
    with pytest.raises(ConfigurationError, match="cannot read"):
        load_config(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    with pytest.raises(ConfigurationError, match="line 1"):
        load_config(str(bad))
    assert load_config("default") == RunConfig()


def test_aggregation_matches_hand_computed_rmse():
    # three synthetic trials with pinned squared errors; RMSE over matched
    # pairs must equal the hand-computed root mean square
    from beamest.harness import TrialRecord

    def rec(trial_id, los_err2, nlos_err2):
        matched = [{"cls": "los", "aod_coarse_deg2": los_err2, "aod_ml_deg2": los_err2,
                    "gain_ml_rel2": 0.0, "delay_ml_sym2": 0.0}]
        if nlos_err2 is not None:
            matched.append({"cls": "nlos", "aod_coarse_deg2": 0.0, "aod_ml_deg2": 0.0,
                            "gain_ml_rel2": 0.0, "delay_ml_sym2": nlos_err2})
        return TrialRecord(
            trial_id=trial_id, snr_db=10.0, truth_classes=["los", "nlos"],
            truth=[], coarse=[], refined=[], assignment=[],
            matched=matched, crlb_vars=[], fim_invertible=False,
            detection_counts={"los": [1, 1], "nlos": [1 if nlos_err2 is not None else 0, 1]},
            sage_iterations=3, r_hat=2, detection_status="ok", feedback=[])

    rows = aggregate_snr("t", 10.0, [rec(0, 4.0, 9.0), rec(1, 16.0, None), rec(2, 1.0, 1.0)])
    table = {(r["path_class"], r["parameter"]): r for r in rows}
    # LOS angle: sqrt((4 + 16 + 1) / 3); NLOS delay: sqrt((9 + 1) / 2)
    assert table[("los", "aod_ml_deg")]["rmse"] == pytest.approx(math.sqrt(21.0 / 3.0))
    assert table[("nlos", "delay_ml_sym")]["rmse"] == pytest.approx(math.sqrt(10.0 / 2.0))
    assert table[("nlos", "delay_ml_sym")]["trials_used"] == 2
    assert table[("nlos", "delay_ml_sym")]["detection_rate"] == pytest.approx(2.0 / 3.0)
    assert table[("los", "aod_ml_deg")]["detection_rate"] == 1.0
    assert table[("los", "delay_ml_sym")]["trials_used"] == 0


def test_trial_record_carries_audit_fields():
    cfg = small_cfg(trials=1, snr_sweep_db=(10.0,))
    rec = run_trial(cfg, 0, 0)
    assert len(rec.truth) == 2
    assert len(rec.coarse) == rec.r_hat
    assert len(rec.refined) == rec.r_hat
    assert all(0 <= ti < 2 and 0 <= ei < rec.r_hat for ti, ei in rec.assignment)


def test_coarse_params_validation():
    with pytest.raises(ConfigurationError):
        CoarseParams(k_points=1)
    with pytest.raises(ConfigurationError):
        CoarseParams(p_fa=1.0)
    with pytest.raises(ConfigurationError):
        CoarseParams(v=0.0)
