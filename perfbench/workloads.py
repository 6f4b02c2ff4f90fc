"""The benchmark's workloads: which sweep each one runs and why.

A workload is a family of ``RunConfig`` blocks.  Block ``b`` of a run with
seed ``s`` draws its scenario seed from ``SeedSequence((s, b))``, so the same
seed always gives the same inputs and blocks never share trials.  Every
workload uses M = 16 beams and L = 16 pilot symbols (the library defaults).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Tuple

import numpy as np

from beamest import RunConfig, ScenarioConfig


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    scenario: ScenarioConfig
    snr_sweep_db: Tuple[float, ...]
    trials: int                 # trials per SNR point in one block
    threads: int                # worker processes of the untraced sweep
    accuracy: bool = True       # reflected paths are resolvable at the top SNR

    def config(self, seed: int, block: int) -> RunConfig:
        block_seed = int(np.random.SeedSequence((seed, block)).generate_state(1)[0])
        return RunConfig(scenario=replace(self.scenario, seed=block_seed),
                         snr_sweep_db=self.snr_sweep_db, trials=self.trials,
                         run_id=f"{self.name}-{seed}-{block}")

    @property
    def trials_per_block(self) -> int:
        return self.trials * len(self.snr_sweep_db)


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="accept_sweep",
        why="acceptance config, 1 reflected path at -10..20 dB on 1 worker: "
            "search-bound, SAGE delay search is about 3/4 of a trial",
        scenario=ScenarioConfig(n_nlos=1, delta_nlos_range_m=(4.5, 22.5)),
        snr_sweep_db=(-10.0, 0.0, 10.0, 20.0),
        trials=25,
        threads=1,
    ),
    Workload(
        name="multipath_hi_snr",
        why="default 2-reflected-path scenario at 20/30 dB on 1 worker: many SAGE "
            "iterations, capped runs and model-order overestimation set the tail",
        scenario=ScenarioConfig(),
        snr_sweep_db=(20.0, 30.0),
        trials=10,
        threads=1,
    ),
    Workload(
        name="bound_curve_2w",
        why="default scenario at -30..-15 dB through the 2-worker pool: little "
            "refinement, so synthesis, Fisher matrix and pool overhead show",
        scenario=ScenarioConfig(),
        snr_sweep_db=(-30.0, -27.0, -24.0, -21.0, -18.0, -15.0),
        trials=200,
        threads=2,
        accuracy=False,
    ),
)}
