"""Checks on the results CSV a sweep produces, read back from its bytes.

The expected schema is written out here rather than imported from the
library, so that a change to the library's CSV layout fails the benchmark.
"""

from __future__ import annotations

import csv
import io
import math
from typing import List, Sequence

SCHEMA_LINE = "# beamest-results v1"
COLUMNS = ["run_id", "snr_db", "path_class", "parameter", "rmse", "sqrt_crlb_avg",
           "trials_used", "detection_rate", "mean_sage_iterations"]
PATH_CLASSES = ("los", "nlos")
PARAMETERS = ("aod_coarse_deg", "aod_ml_deg", "gain_ml_rel", "delay_ml_sym")


def csv_problems(data: bytes, snr_sweep_db: Sequence[float]) -> List[str]:
    """Every way ``data`` departs from a v1 results CSV of the given sweep."""
    lines = data.decode().splitlines()
    if not lines or lines[0] != SCHEMA_LINE:
        return [f"first line is not {SCHEMA_LINE!r}"]
    table = list(csv.reader(io.StringIO("\n".join(lines[1:]))))
    if not table or table[0] != COLUMNS:
        return [f"header is not {COLUMNS}"]
    problems = []
    keys = []
    for n, row in enumerate(table[1:], start=3):
        if len(row) != len(COLUMNS):
            problems.append(f"line {n}: {len(row)} fields")
            continue
        rec = dict(zip(COLUMNS, row))
        try:
            snr = float(rec["snr_db"])
            rmse = float(rec["rmse"])
            float(rec["sqrt_crlb_avg"])
            used = int(rec["trials_used"])
            rate = float(rec["detection_rate"])
            float(rec["mean_sage_iterations"])
        except ValueError as exc:
            problems.append(f"line {n}: {exc}")
            continue
        if rec["path_class"] not in PATH_CLASSES or rec["parameter"] not in PARAMETERS:
            problems.append(f"line {n}: unknown row {rec['path_class']}/{rec['parameter']}")
        if used < 0:
            problems.append(f"line {n}: trials_used {used} < 0")
        if used > 0 and not math.isfinite(rmse):
            problems.append(f"line {n}: rmse {rmse} with trials_used {used}")
        if not 0.0 <= rate <= 1.0:
            problems.append(f"line {n}: detection_rate {rate} outside [0, 1]")
        keys.append((snr, rec["path_class"], rec["parameter"]))
    expected = sorted((float(s), c, p) for s in snr_sweep_db
                      for c in PATH_CLASSES for p in PARAMETERS)
    if sorted(keys) != expected:
        problems.append("rows do not cover each (SNR, class, parameter) exactly once")
    return problems
