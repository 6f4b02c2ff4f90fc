"""Regenerate the golden CLI outputs under tests/golden and report what changed.

Usage, from the repository root:

    PYTHONPATH=src python3 tests/regenerate_goldens.py

The goldens are the fixed-seed outputs that a refactor must leave byte for
byte unchanged (``tests/test_golden.py`` compares them):

* ``run_default_seed3.csv``: ``beamest run --config default --seed 3 --trials 100``;
* ``run_default_seed3.csv.feedback.csv``: that run's feedback log (the run
  sets ``emit_feedback_log``, which leaves its CSV unchanged);
* ``crlb_seed3.csv``, ``demo_seed42.txt`` and ``lut.csv``: the output of
  ``beamest crlb --seed 3``, ``beamest demo --seed 42`` and ``beamest lut``.

``numpy_version.txt`` records the numpy version that wrote them, since numpy
or its BLAS can move the last bits of a float.  The script rewrites every
file and prints, per output, the number of changed fields and, per CSV
column, the largest absolute and relative change: the statement of the
largest change that a results-changing commit makes.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from beamest import cli

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
NUMPY_VERSION_FILE = "numpy_version.txt"
RUN_CSV = "run_default_seed3.csv"

# printed outputs: (file name, CLI arguments)
PRINTED = (
    ("crlb_seed3.csv", ["crlb", "--seed", "3"]),
    ("demo_seed42.txt", ["demo", "--seed", "42"]),
    ("lut.csv", ["lut"]),
)


def _cli(argv: List[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code != cli.EXIT_OK:
        raise RuntimeError(f"beamest {' '.join(argv)} exited {code}")
    return out.getvalue()


def golden_outputs(workdir: Path) -> Dict[str, bytes]:
    """Every golden output, computed afresh in ``workdir``, keyed by file name."""
    cfg = workdir / "feedback.json"
    cfg.write_text(json.dumps({"emit_feedback_log": True}))
    run_csv = workdir / RUN_CSV
    _cli(["run", "--config", str(cfg), "--seed", "3", "--trials", "100",
          "--threads", "1", "--out", str(run_csv)])
    feedback = Path(str(run_csv) + ".feedback.csv")
    outputs = {RUN_CSV: run_csv.read_bytes(), feedback.name: feedback.read_bytes()}
    for name, argv in PRINTED:
        outputs[name] = _cli(argv).encode()
    return outputs


def _fields(text: str, is_csv: bool) -> List[List[Tuple[Optional[str], str]]]:
    """Per line, the (column, value) fields; '#' lines and text split on whitespace."""
    lines, header = [], None
    for line in text.splitlines():
        if is_csv and not line.startswith("#"):
            row = next(csv.reader([line]))
            if header is None:
                header = row
            lines.append(list(zip(header, row)))
        else:
            lines.append([(None, tok) for tok in line.split()])
    return lines


def _number(value: str) -> Optional[float]:
    try:
        x = float(value)
    except ValueError:
        return None
    return x if math.isfinite(x) else None


def diff_report(name: str, old: Optional[bytes], new: bytes) -> List[str]:
    """Lines stating how ``new`` differs from ``old``, field by field."""
    if old is None:
        return [f"{name}: new file"]
    if old == new:
        return [f"{name}: unchanged"]
    is_csv = name.endswith(".csv")
    old_lines, new_lines = _fields(old.decode(), is_csv), _fields(new.decode(), is_csv)
    total = sum(map(len, new_lines))
    changed = abs(len(old_lines) - len(new_lines))
    # column -> [largest |change|, largest relative change, its row, old, new]
    stats: Dict[str, list] = {}
    for a_line, b_line in zip(old_lines, new_lines):
        changed += abs(len(a_line) - len(b_line))
        # a row is named by its leading fields that did not change
        first = next((i for i, (a, b) in enumerate(zip(a_line, b_line)) if a != b), 0)
        row = ",".join(value for _, value in a_line[:first])
        for (col, a), (_, b) in zip(a_line, b_line):
            if a == b:
                continue
            changed += 1
            x, y = _number(a), _number(b)
            if col is None or x is None or y is None:
                continue
            d_abs = abs(y - x)
            d_rel = d_abs / abs(x) if x != 0 else math.inf
            s = stats.setdefault(col, [0.0, -1.0, row, a, b])
            s[0] = max(s[0], d_abs)
            if d_rel > s[1]:
                s[1:] = [d_rel, row, a, b]
    out = [f"{name}: {changed} of {total} fields changed"]
    for col, (d_abs, d_rel, row, a, b) in stats.items():
        out.append(f"  {col}: largest absolute change {d_abs:.6g}; largest relative change "
                   f"{100.0 * d_rel:.4g}%, at {row}: {a} -> {b}")
    return out


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        fresh = golden_outputs(Path(tmp))
    GOLDEN_DIR.mkdir(exist_ok=True)
    version = GOLDEN_DIR / NUMPY_VERSION_FILE
    recorded = version.read_text().strip() if version.exists() else None
    if recorded is not None and recorded != np.__version__:
        print(f"numpy {recorded} -> {np.__version__}")
    for name, data in fresh.items():
        path = GOLDEN_DIR / name
        print("\n".join(diff_report(name, path.read_bytes() if path.exists() else None, data)))
        path.write_bytes(data)
    version.write_text(np.__version__ + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
