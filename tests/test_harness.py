import dataclasses
import json
import math
import os
import platform
from pathlib import Path

import numpy as np
import pytest

from beamest import (ArrayConfig, ConfigurationError, PathEstimate,
                     RunConfig, ScenarioConfig, active_backend, match_paths, run_sweep,
                     run_trial)
from beamest.channel import ChannelRealization, PathParams, unit_power_signal
from beamest.coarse import (build_lut, coarse_estimate, correlate, detect_paths,
                            detection_threshold, mu_to_theta_deg)
from beamest import _kernels, harness
from beamest.harness import (CSV_COLUMNS, PARAMETERS, PATH_CLASSES, CoarseParams,
                             aggregate_snr, config_from_dict, load_config, path_class,
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
    assert {path_class(ti) for ti, _ in rec.assignment} == {"los", "nlos"}
    for m in rec.matched:
        assert m["aod_ml_deg"] < 1e-8
        assert m["delay_ml_sym"] < 1e-8
        assert m["gain_ml_rel"] < 1e-12
    assert not rec.crlb_vars  # undefined without noise


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
    ratio = a.crlb_vars[1]["delay_ml_sym"] / b.crlb_vars[1]["delay_ml_sym"]
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
    assert meta["backend"] == active_backend()
    assert meta["numpy_version"] == np.__version__
    assert meta["python_version"] == platform.python_version()
    assert meta["cpu_count"] == os.cpu_count()


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


@pytest.mark.parametrize("trials", [7, 9])
@pytest.mark.parametrize("threads", [1, 2, 3])
def test_sweep_chunks_equal_per_point_trials(trials, threads):
    # a task refines every detected observation of a chunk of trials in
    # lockstep; where the chunk edges fall must change no bit
    cfg = small_cfg(trials=trials, snr_sweep_db=(-5.0, 10.0, 30.0),
                    scenario=ScenarioConfig(n_nlos=2, seed=3))
    rows, recs = run_sweep(cfg, threads=threads)
    expected = [run_trial(cfg, s, t) for s in range(3) for t in range(trials)]
    assert repr(recs) == repr(expected)
    assert sum(r.r_hat > 0 for r in recs) > trials
    expected_rows = []
    for s, snr_db in enumerate(cfg.snr_sweep_db):
        expected_rows.extend(aggregate_snr(cfg.run_id, snr_db,
                                           expected[s * trials:(s + 1) * trials]))
    assert rows_to_csv_bytes(rows) == rows_to_csv_bytes(expected_rows)


def test_sweep_chunks_are_bounded(monkeypatch):
    # a chunk's lockstep batch holds search temporaries for each of its
    # observations, so a long sweep must not grow its tasks with the trial count
    for trials in (1, 7, 1000, 10 ** 6):
        for n_snr in (1, 4, 6, 500):
            for threads in (1, 2, 8):
                size = harness._chunk_trials(trials, n_snr, threads)
                assert 1 <= size <= max(1, trials // (4 * threads))
                assert size * n_snr <= max(n_snr, harness._CHUNK_OBSERVATIONS)
    sizes = []
    chunk_records = harness._chunk_records

    def spy(cfg, trials, snr_indices):
        sizes.append(len(trials))
        return chunk_records(cfg, trials, snr_indices)

    monkeypatch.setattr(harness, "_chunk_records", spy)
    monkeypatch.setattr(harness, "_CHUNK_OBSERVATIONS", 12)
    run_sweep(small_cfg(trials=50, snr_sweep_db=(-30.0, -25.0, -20.0, -15.0)), threads=1)
    assert sizes == [3] * 16 + [2]


@pytest.mark.parametrize("threads", [0, -3, 1.5])
def test_sweep_refuses_a_bad_worker_count(threads):
    with pytest.raises(ConfigurationError, match="threads"):
        run_sweep(small_cfg(trials=1), threads=threads)


def test_sweep_draws_each_trial_once(monkeypatch):
    # one random generator, one draw and one information matrix per trial; one
    # tap pass, one stacked signal, one bound stack, one correlation and one
    # diagonal scan per chunk
    cfg = small_cfg(trials=12, snr_sweep_db=(0.0, 5.0, 10.0, 20.0))
    per_trial = {"default_rng": np.random, "draw_realization": harness,
                 "fisher_matrix": harness}
    per_chunk = {"unit_power_signal": harness, "crlb_bounds": harness, "correlate": harness,
                 "detect_paths": harness, "pilot_rows_and_derivs": _kernels}
    calls = dict.fromkeys({**per_trial, **per_chunk}, 0)

    def counted(name, module):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name, module in {**per_trial, **per_chunk}.items():
        monkeypatch.setattr(module, name, counted(name, module))
    size = harness._chunk_trials(cfg.trials, len(cfg.snr_sweep_db), 1)
    assert size > 1
    run_sweep(cfg)
    chunks = -(-cfg.trials // size)
    assert calls == {**dict.fromkeys(per_trial, cfg.trials), **dict.fromkeys(per_chunk, chunks)}
    # run_trial is the chunk of one
    calls.update(dict.fromkeys(calls, 0))
    run_trial(cfg, 2, 1)
    assert calls == dict.fromkeys(calls, 1)


@pytest.mark.parametrize("reps", [1, 2])
def test_chunk_noise_is_circular_at_the_effective_variance(reps):
    # y - sqrt(P_T) S0 is the noise a chunk added: every entry circularly
    # symmetric with variance noise_var / reps, split evenly over its halves;
    # over 40,960 entries each tolerance is at least five standard errors
    cfg = small_cfg(scenario=ScenarioConfig(n_nlos=2, seed=21, noise_var=2.5), trials=40,
                    snr_sweep_db=(-10.0, 0.0, 10.0, 20.0), repetitions_per_beam=reps)
    chunk = harness.synthesize_trial(cfg, range(4), range(40))
    s0 = unit_power_signal(chunk.reals, cfg.array, cfg.cazac)
    noise = (chunk.y - np.sqrt(chunk.pts)[:, None, None] * s0[:, None]).ravel()
    var = cfg.scenario.noise_var / reps
    assert chunk.noise_eff == var
    assert np.mean(np.abs(noise) ** 2) == pytest.approx(var, rel=0.03)
    assert np.mean(noise.real ** 2) == pytest.approx(var / 2, rel=0.04)
    assert np.mean(noise.imag ** 2) == pytest.approx(var / 2, rel=0.04)
    assert abs(np.mean(noise ** 2)) < 0.03 * var      # pseudo-variance E[n^2]


@pytest.mark.parametrize("reps", [1, 2])
def test_point_noise_does_not_depend_on_the_other_points(reps):
    # a trial's stream draws every point's noise in sweep order, so a point
    # synthesized alone or among others gets the same bits
    cfg = small_cfg(trials=6, snr_sweep_db=(-10.0, 0.0, 10.0, 20.0), repetitions_per_beam=reps)
    trials = range(1, 6)
    whole = harness._synthesize(cfg, range(4), trials)
    for s in range(4):
        alone = harness._synthesize(cfg, (s,), trials)
        assert alone.y[:, 0].tobytes() == whole.y[:, s].tobytes()
    assert harness._synthesize(cfg, (3, 1), trials).y.tobytes() == whole.y[:, [3, 1]].tobytes()


@pytest.mark.parametrize("kw", [
    {},
    {"repetitions_per_beam": 2},
    {"scenario": ScenarioConfig(n_nlos=2, seed=8, noise_var=0.0)},
], ids=["plain", "repetitions", "noiseless"])
def test_chunk_records_equal_per_point_trials(kw):
    # a chunk of several trials synthesizes, bounds, correlates and scans all
    # of its observations in stacks; every record must equal its run_trial
    cfg = small_cfg(**{"scenario": ScenarioConfig(n_nlos=2, seed=8), "trials": 6,
                       "snr_sweep_db": (-30.0, 10.0, 30.0), **kw})
    trials, points = range(1, 6), (2, 0)
    chunk = harness._chunk_records(cfg, trials, points)
    assert repr(chunk) == repr([[run_trial(cfg, s, t) for s in points] for t in trials])
    recs = [rec for per_trial in chunk for rec in per_trial]
    assert any(rec.r_hat == 0 for rec in recs) and sum(rec.r_hat > 0 for rec in recs) > 1
    assert all(bool(rec.crlb_vars) == (cfg.scenario.noise_var > 0) for rec in recs)


def test_records_hold_only_builtin_scalars():
    # numpy scalars pickle several times larger, and pool workers pickle every record
    cfg = small_cfg(trials=4, snr_sweep_db=(-10.0, 10.0, 30.0),
                    scenario=ScenarioConfig(n_nlos=2, seed=5))
    _, recs = run_sweep(cfg)
    assert any(rec.crlb_vars and rec.matched and rec.refined for rec in recs)

    def scalars(x):
        if isinstance(x, dict):
            for k, v in x.items():
                yield from scalars(k)
                yield from scalars(v)
        elif isinstance(x, (list, tuple)):
            for v in x:
                yield from scalars(v)
        else:
            yield x

    for rec in recs:
        for f in dataclasses.fields(rec):
            for value in scalars(getattr(rec, f.name)):
                assert type(value) in (int, float, complex, str, bool), (f.name, type(value))


def test_range_lists_give_the_tuple_result():
    # list ranges are stored as tuples, so they give the same config and draws
    lists = ScenarioConfig(n_nlos=1, seed=11, d_los_range_m=[30.0, 60.0],
                           delta_nlos_range_m=[4.5, 24.0], theta_range_deg=[-60.0, 60.0])
    assert lists == ScenarioConfig(n_nlos=1, seed=11)
    assert run_trial(small_cfg(scenario=lists), 1, 2) == run_trial(small_cfg(), 1, 2)
    # a JSON config gives the same lists, and the section is passed through as is
    loaded = config_from_dict({"scenario": {"n_nlos": 1, "seed": 11,
                                            "d_los_range_m": [30.0, 60.0],
                                            "delta_nlos_range_m": [4.5, 24.0],
                                            "theta_range_deg": [-60.0, 60.0]},
                               "snr_sweep_db": [0.0, 10.0], "trials": 5, "run_id": "t"})
    assert loaded == small_cfg()
    assert run_trial(loaded, 1, 2) == run_trial(small_cfg(), 1, 2)


def test_feedback_log(tmp_path):
    cfg = small_cfg(trials=4, snr_sweep_db=(0.0, 10.0, 30.0), emit_feedback_log=True,
                    output_path=str(tmp_path / "fb.csv"))
    rows, recs = run_sweep(cfg)
    write_outputs(cfg, rows, recs)
    lines = (tmp_path / "fb.csv.feedback.csv").read_text().splitlines()
    assert lines[0] == "run_id,snr_db,trial_id,path,beam_index_bits,delta_ratio"
    assert len(lines) > 1
    # every row is the feedback of its coarse path, recomputed from the observation
    lut = build_lut(cfg.array, cfg.coarse.k_points)
    expected = []
    for s, snr_db in enumerate(cfg.snr_sweep_db):
        for t in range(cfg.trials):
            _, y, noise = harness.synthesize_trial(cfg, s, t)
            power = correlate(y)
            dets = detect_paths(power, detection_threshold(noise, cfg.array.m, cfg.coarse.p_fa))
            if not dets:
                continue
            est = coarse_estimate(power, dets, lut, cfg.array, cfg.cazac, noise,
                                  v=cfg.coarse.v, p_fa=cfg.coarse.p_fa)
            expected += [f"t,{snr_db:.12g},{t},{i},{cp.feedback.beam_index_bits},"
                         f"{cp.feedback.delta_ratio:.12g}" for i, cp in enumerate(est.paths)]
    assert lines[1:] == expected


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
    assert b.crlb_vars[0]["aod_ml_deg"] == pytest.approx(a.crlb_vars[0]["aod_ml_deg"] / 2,
                                                         rel=1e-9)


def test_config_validation_cross_checks():
    with pytest.raises(ConfigurationError):
        RunConfig(trials=0)
    with pytest.raises(ConfigurationError):
        RunConfig(snr_sweep_db=())


def test_config_refuses_more_beams_than_pilot_shifts():
    # each beam transmits its own cyclic shift of the length-L pilot, and the
    # coarse stage keeps M of the L correlation lags, wrapping its diagonals
    # mod M: with M < L a path at delay tau on beam k has no correlation
    # power once k + tau >= M, so M must equal L
    with pytest.raises(ConfigurationError, match="array size 32.*pilot length 16"):
        RunConfig(array=ArrayConfig(m=32))
    with pytest.raises(ConfigurationError, match="array size 32.*pilot length 16"):
        config_from_dict({"array": {"m": 32}})
    assert RunConfig(array=ArrayConfig(m=16)).array.m == 16
    with pytest.raises(ConfigurationError, match="array size 4.*pilot length 16"):
        RunConfig(array=ArrayConfig(m=4))
    with pytest.raises(ConfigurationError, match="array size 8.*pilot length 16"):
        config_from_dict({"array": {"m": 8}})
    with pytest.raises(ConfigurationError, match="array size 16.*pilot length 25"):
        config_from_dict({"cazac": {"length": 25}})
    cfg = config_from_dict({"array": {"m": 4}, "cazac": {"length": 4}})
    assert (cfg.array.m, cfg.cazac.length) == (4, 4)


def test_config_from_dict_unknown_keys():
    with pytest.raises(ConfigurationError, match="unknown config key"):
        config_from_dict({"bogus": 1})
    with pytest.raises(ConfigurationError, match="scenario.bogus"):
        config_from_dict({"scenario": {"bogus": 1}})


def test_config_accepts_every_field_and_refuses_unknown_ones():
    # every field of every section, as a JSON config writes it, loads back unchanged
    full = json.loads(json.dumps(dataclasses.asdict(RunConfig())))
    assert config_from_dict(full) == RunConfig()
    assert config_from_dict({"sage": {"mu_window": 0.25}}).sage.mu_window == 0.25
    sections = [name for name, value in full.items() if isinstance(value, dict)]
    assert sections == ["scenario", "array", "cazac", "sage", "coarse"]
    for name in sections:
        with pytest.raises(ConfigurationError, match=f"{name}.bogus"):
            config_from_dict({name: {"bogus": 1}})


def test_readme_config_block_is_the_schema():
    # the documented example loads, and every value it shows is the default
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("### Config file", 1)[1].split("```json", 1)[1].split("```", 1)[0]
    data = json.loads(block)
    defaults = RunConfig()
    assert config_from_dict(data) == dataclasses.replace(
        defaults, run_id=data["run_id"],
        scenario=dataclasses.replace(defaults.scenario, seed=data["seed"]))


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
    # three synthetic trials with pinned squared errors and bound variances;
    # RMSE over matched pairs must equal the hand-computed root mean square,
    # and the bound the root of the mean variance over invertible trials
    from beamest.harness import TrialRecord

    def rec(trial_id, los_err2, nlos_err2, var=None):
        # truth 0 is the LOS path, truth 1 the reflected one
        assignment = [(0, 0)]
        matched = [{"aod_coarse_deg": los_err2, "aod_ml_deg": los_err2,
                    "gain_ml_rel": 0.0, "delay_ml_sym": 0.0}]
        if nlos_err2 is not None:
            assignment.append((1, 1))
            matched.append({"aod_coarse_deg": 0.0, "aod_ml_deg": 0.0,
                            "gain_ml_rel": 0.0, "delay_ml_sym": nlos_err2})
        crlb_vars = [] if var is None else [
            {"aod_coarse_deg": k * var, "aod_ml_deg": k * var, "gain_ml_rel": 2 * k * var,
             "delay_ml_sym": 3 * k * var}
            for k in (1, 5)]
        return TrialRecord(
            trial_id=trial_id, snr_db=10.0, truth=[(0.0, 1 + 0j, 0.0), (0.0, 0.5 + 0j, 5.0)],
            coarse=[(0, 0.0, 1.0, 0, math.inf)] * 2, refined=[], assignment=assignment,
            matched=matched, crlb_vars=crlb_vars, sage_iterations=3, detection_status="ok")

    # trial 1's information matrix is singular: no bound, but its errors count
    rows = aggregate_snr("t", 10.0, [rec(0, 4.0, 9.0, var=0.25), rec(1, 16.0, None),
                                     rec(2, 1.0, 1.0, var=1.0)])
    table = {(r["path_class"], r["parameter"]): r for r in rows}
    # bounds: sqrt of the mean of (0.25, 1.0) times each parameter's factor
    for (cls, param), factor in {("los", "aod_coarse_deg"): 1, ("los", "aod_ml_deg"): 1,
                                 ("los", "gain_ml_rel"): 2, ("los", "delay_ml_sym"): 3,
                                 ("nlos", "aod_ml_deg"): 5, ("nlos", "gain_ml_rel"): 10,
                                 ("nlos", "delay_ml_sym"): 15}.items():
        expected = math.sqrt(factor * (0.25 + 1.0) / 2.0)
        assert table[(cls, param)]["sqrt_crlb_avg"] == pytest.approx(expected, rel=1e-15)
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


def test_shared_lut_is_read_only():
    # one LUT serves every trial in a process, so no caller may change it
    lut = harness._shared_lut(ArrayConfig(m=16), 101)
    assert not lut.ratios.flags.writeable
    with pytest.raises(ValueError):
        lut.ratios[1] = 0.0


def test_coarse_params_validation():
    with pytest.raises(ConfigurationError):
        CoarseParams(k_points=1)
    with pytest.raises(ConfigurationError):
        CoarseParams(p_fa=1.0)
    with pytest.raises(ConfigurationError):
        CoarseParams(v=0.0)
