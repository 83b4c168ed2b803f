"""Per-layer tracing by wrapping iosfd's public functions from outside.

`run_algorithm2` binds its blocks when `iosfd.algorithm` is imported, so the
wrappers replace those names in the `iosfd.algorithm` namespace; the PGD
projection and the multiplier bisection are replaced in `iosfd.phases` and
`iosfd.beamformers`, where their callers look them up.  Campaign workers
inherit the wrappers (or install them, under a non-fork start method) through
a pool initializer and write their totals to one JSON file per process after
every run, which the parent merges.
"""
from __future__ import annotations

import functools
import json
import logging
import os
import time
import uuid
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import iosfd
import iosfd.algorithm
import iosfd.beamformers
import iosfd.campaign
import iosfd.phases

# Blocks of one outer iteration; algorithm.self is the run time outside them.
BLOCKS = ("wmmse.update_state", "wmmse.surrogate", "beamformers.update", "phases.build",
          "phases.vectorize", "phases.solve", "system.compose", "system.rate")

_TIMED = (
    (iosfd.algorithm, "update_state", "wmmse.update_state"),
    (iosfd.algorithm, "surrogate_objective", "wmmse.surrogate"),
    (iosfd.algorithm, "update_beamformers", "beamformers.update"),
    (iosfd.algorithm, "vectorize", "phases.vectorize"),
    (iosfd.algorithm, "compose_effective", "system.compose"),
    (iosfd.algorithm, "compose_direct", "system.compose"),
    (iosfd.algorithm, "weighted_sum_rate", "system.rate"),
    (iosfd, "build_layout", "channels.layout"),
    (iosfd.campaign, "build_layout", "channels.layout"),
    (iosfd, "sample_channels", "channels.sample"),
    (iosfd.campaign, "sample_channels", "channels.sample"),
    (iosfd.campaign, "run_campaign", "campaign.run"),
    (iosfd.campaign, "write_campaign", "campaign.write"),
)


# The installed tracer; a forked campaign worker inherits it.
_active: "Tracer | None" = None


class _RidgeCounter(logging.Handler):
    def __init__(self, tracer: "Tracer") -> None:
        super().__init__(logging.WARNING)
        self.tracer = tracer

    def emit(self, record: logging.LogRecord) -> None:
        if "ridge" in record.getMessage():
            self.tracer.counts["linalg.ridge_retries"] += 1


class Tracer:
    """Wall time and call count per label, plus event counts."""

    def __init__(self) -> None:
        self.dump_path: Path | None = None
        self._saved: list[tuple[object, str, object]] = []
        self._handler = _RidgeCounter(self)
        self.reset()

    def reset(self) -> None:
        self.ms: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.form_bytes = 0
        self._in_solve = False

    # -- wrappers ---------------------------------------------------------
    def _timed(self, label, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.ms[label] += (time.perf_counter() - t0) * 1e3
                self.calls[label] += 1
        return wrapper

    def _run(self, fn):
        timed = self._timed("algorithm.run", fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = timed(*args, **kwargs)
            self.counts["algorithm.iterations"] += result.trace.iterations
            self.counts["algorithm.cap_exits"] += result.trace.terminated_by == "max_iters"
            if self.dump_path is not None:
                self.dump(self.dump_path)
            return result
        return wrapper

    def _build(self, fn):
        timed = self._timed("phases.build", fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            qf = timed(*args, **kwargs)
            held = sum(v.nbytes for v in vars(qf).values() if hasattr(v, "nbytes"))
            self.form_bytes = max(self.form_bytes, held)
            return qf
        return wrapper

    def _solve(self, fn):
        timed = self._timed("phases.solve", fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._in_solve = True
            try:
                return timed(*args, **kwargs)
            finally:
                self._in_solve = False
        return wrapper

    def _project(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._in_solve:
                self.counts["phases.pgd_trials"] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _bisect(self, fn):
        @functools.wraps(fn)
        def wrapper(power_of, *args, **kwargs):
            def counted(m):
                self.counts["beamformers.probes"] += 1
                return power_of(m)
            return fn(counted, *args, **kwargs)
        return wrapper

    # -- install / remove -------------------------------------------------
    def _patch(self, module, name, wrapper) -> None:
        self._saved.append((module, name, getattr(module, name)))
        setattr(module, name, wrapper)

    def install(self, dump_dir: Path | None = None) -> None:
        """Wrap every traced function; with `dump_dir`, campaign workers report there."""
        for module, name, label in _TIMED:
            self._patch(module, name, self._timed(label, getattr(module, name)))
        for module in (iosfd.algorithm, iosfd.campaign):
            self._patch(module, "run_algorithm2", self._run(module.run_algorithm2))
        self._patch(iosfd.algorithm, "build_quadratic_forms",
                    self._build(iosfd.algorithm.build_quadratic_forms))
        self._patch(iosfd.algorithm, "solve_qcqp", self._solve(iosfd.algorithm.solve_qcqp))
        self._patch(iosfd.phases, "project_feasible",
                    self._project(iosfd.phases.project_feasible))
        self._patch(iosfd.beamformers, "bisect_multiplier",
                    self._bisect(iosfd.beamformers.bisect_multiplier))
        if dump_dir is not None:
            self._patch(iosfd.campaign, "ProcessPoolExecutor", functools.partial(
                ProcessPoolExecutor, initializer=_worker_init, initargs=(str(dump_dir),)))
        logging.getLogger("iosfd.linalg").addHandler(self._handler)
        global _active
        _active = self

    def uninstall(self) -> None:
        global _active
        _active = None
        logging.getLogger("iosfd.linalg").removeHandler(self._handler)
        while self._saved:
            module, name, original = self._saved.pop()
            setattr(module, name, original)

    # -- worker totals ----------------------------------------------------
    def dump(self, path: Path) -> None:
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps({"ms": self.ms, "calls": self.calls,
                                   "counts": self.counts, "form_bytes": self.form_bytes}))
        os.replace(tmp, path)

    def merge_dumps(self, dump_dir: Path) -> None:
        for path in sorted(dump_dir.glob("trace-*.json")):
            data = json.loads(path.read_text())
            self.ms.update(data["ms"])
            self.calls.update(data["calls"])
            self.counts.update(data["counts"])
            self.form_bytes = max(self.form_bytes, data["form_bytes"])


def _worker_init(dump_dir: str) -> None:
    """Pool initializer: zero the totals a forked worker inherits, or install the
    wrappers in a fresh interpreter, and report to this worker's own file."""
    if _active is None:
        Tracer().install()
    _active.reset()
    # unique per worker even if a later pool reuses a pid
    _active.dump_path = Path(dump_dir) / f"trace-{os.getpid()}-{uuid.uuid4().hex}.json"
