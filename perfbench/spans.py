"""In-memory spans around the pipeline stages that ``harness.run_trial`` calls.

``run_trial`` looks its stage functions up in the ``beamest.harness`` module
namespace at call time, so the traced run swaps those names for recording
wrappers (and restores them afterwards); the library code itself is never
edited.  Every span stores its name, its parent span and its start and end
times; counts are taken from the stage results at the same boundaries.
"""

from __future__ import annotations

import contextlib
from collections import Counter
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

from beamest import harness

# harness-resolved stage name -> per-layer time metric it feeds
STAGES: Dict[str, str] = {
    "synthesize_trial": "channel.synth_ms",
    "fisher_matrix": "crlb.fisher_ms",
    "crlb_bounds": "crlb.bound_ms",
    "correlate": "coarse.correlate_ms",
    "detect_paths": "coarse.detect_ms",
    "coarse_estimate": "coarse.estimate_ms",
    "run_sage": "sage.refine_ms",
    "match_paths": "harness.match_ms",
}

Span = Tuple[str, Optional[int], float, float]   # name, parent span id, start, end


class Tracer:
    """Collects spans and boundary counts; span ids are list positions."""

    def __init__(self):
        self.spans: List[Optional[Span]] = []
        self.counts: Counter = Counter()
        self._parent: Optional[int] = None

    def call(self, name: str, fn: Callable, *args, **kwargs):
        sid = len(self.spans)
        self.spans.append(None)
        parent, self._parent = self._parent, sid
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            self._parent = parent
            self.spans[sid] = (name, parent, t0, t1)

    def _stage(self, name: str, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            self.counts[name + ".calls"] += 1
            self._observe(name, result)
            return result
        return wrapper

    def _observe(self, name: str, result) -> None:
        c = self.counts
        if name == "run_sage":
            c["sage.iterations"] += result.iterations
            c["sage.path_updates"] += result.iterations * len(result.paths)
            c["sage.not_converged"] += not result.converged
        elif name == "crlb_bounds":
            c["crlb.fim_singular"] += not result.invertible
        elif name == "detect_paths":
            c["coarse.detections"] += len(result)
        elif name == "coarse_estimate":
            c["coarse.paths_kept"] += result.r_hat

    @contextlib.contextmanager
    def installed(self):
        """Route the harness stage lookups through recording wrappers."""
        originals = {name: getattr(harness, name) for name in STAGES}
        try:
            for name, fn in originals.items():
                setattr(harness, name, self._stage(name, fn))
            yield self
        finally:
            for name, fn in originals.items():
                setattr(harness, name, fn)

    def per_trial(self) -> List[Dict[str, float]]:
        """Seconds per ``run_trial`` span: its total, each stage, and its own time."""
        trials: Dict[int, Dict[str, float]] = {}
        for sid, (name, parent, t0, t1) in enumerate(self.spans):
            if name == "run_trial":
                trials[sid] = {"run_trial": t1 - t0, "self": t1 - t0}
        for name, parent, t0, t1 in self.spans:
            if parent in trials:
                row = trials[parent]
                row[name] = row.get(name, 0.0) + (t1 - t0)
                row["self"] -= t1 - t0
        return [trials[sid] for sid in sorted(trials)]

    def total(self, name: str) -> float:
        return sum(t1 - t0 for n, _, t0, t1 in self.spans if n == name)
