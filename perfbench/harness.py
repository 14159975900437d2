"""Measurement machinery shared by the workloads: importing quivex from this
checkout, timing operations, recording output-check failures, an in-memory
span recorder, and the run context written with every result.

Times are normalised to a reference machine speed (see ``Speedometer``).
Nothing here knows what a workload computes.  A workload module provides

* ``setup(qx, seed, tracer)`` that builds its inputs from the seed,
* ``run_pass(qx, inputs, op, tracer)`` that runs its timed operations through
  ``op`` and reports rejected outputs with ``op.reject``,
* ``sizes(inputs)`` describing the input sizes for the run context,
* optionally ``probes(qx, inputs)``: known-defect probes, run once after the
  timed passes and never timed.
"""

from __future__ import annotations

import importlib
import os
import platform
import resource
import signal
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

CHECKOUT = Path(__file__).resolve().parent.parent
SRC = CHECKOUT / "src"

# Everything a user of the library or of the in-process CLI imports.
QUIVEX_MODULES = ("quivex", "quivex.acceptance", "quivex.cli", "quivex.formats")


class MissingSourceError(Exception):
    """The checkout has no quivex sources next to the benchmark."""


def use_checkout_sources() -> None:
    """Put this checkout's ``src/`` first on the import path, so that the
    benchmark measures the sources beside it and never an installed copy."""
    if not (SRC / "quivex" / "__init__.py").is_file():
        raise MissingSourceError(f"no quivex package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def fresh_import():
    """Import quivex as a new process would, and return the package.

    Modules from an earlier import are dropped first, so repeated calls each
    pay the full import cost; callers must only use objects made from the
    package this call returns.
    """
    for name in [n for n in sys.modules if n == "quivex" or n.startswith("quivex.")]:
        del sys.modules[name]
    for name in QUIVEX_MODULES:
        importlib.import_module(name)
    qx = sys.modules["quivex"]
    if Path(qx.__file__).resolve().parent != SRC / "quivex":
        raise MissingSourceError(f"imported quivex from {qx.__file__}, not from {SRC}")
    return qx


# ------------------------------------------------------------ normalising

# A 2-core Xeon VM measured with this benchmark changed speed by up to 2x
# within a second and by about 40% from one minute to the next, and CPU time
# followed wall time.  So every time is normalised by calibration chunks
# timed while the measured code runs: between operations and, from a SIGALRM
# handler, every TICK_S inside them.  Chunks timed once per run, or only at
# the ends of a long operation, do not track the drift.  Normalised seconds
# are raw seconds times REFERENCE_CHUNK_S over the mean chunk, i.e. seconds
# on a machine where one chunk takes 2 ms.
REFERENCE_CHUNK_S = 0.002
TICK_S = 0.05
CHUNK_SIZE = 9


def calibration_chunk() -> None:
    """Eliminate the 9x9 Hilbert matrix in exact Fractions: the same kind of
    work as quivex's, done by code that no quivex change can touch."""
    n = CHUNK_SIZE
    rows = [[Fraction(1, i + j + 1) for j in range(n)] for i in range(n)]
    for k in range(n):
        pivot = rows[k][k]
        for i in range(n):
            if i != k:
                f = rows[i][k] / pivot
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[k])]


class Speedometer:
    """Samples the machine's speed while measured code runs.

    Inside ``with Speedometer() as meter``, a SIGALRM handler times one
    calibration chunk every TICK_S seconds; ``sample`` times one between
    measured intervals.  ``clock`` is ``perf_counter`` minus the time spent
    in the handler's chunks, so measured code is not charged for them.
    """

    def __init__(self):
        self.chunks: list[float] = []
        self._stolen = 0.0
        self._busy = False

    def __enter__(self) -> Speedometer:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _chunk(self) -> float:
        self._busy = True  # a tick arriving now is dropped, not nested
        start = time.perf_counter()
        calibration_chunk()
        elapsed = time.perf_counter() - start
        self.chunks.append(elapsed)
        self._busy = False
        return elapsed

    def _tick(self, signum, frame) -> None:
        if not self._busy:
            self._stolen += self._chunk()

    def sample(self) -> int:
        """Time one chunk now; returns its index for ``factor``."""
        self._chunk()
        return len(self.chunks) - 1

    def clock(self) -> float:
        return time.perf_counter() - self._stolen

    def factor(self, first: int) -> float:
        """What raw seconds measured since chunk ``first`` are multiplied by."""
        window = self.chunks[first:]
        return REFERENCE_CHUNK_S * len(window) / sum(window)


# ------------------------------------------------------------------ spans


class Tracer:
    """In-memory span recorder.

    A span records its name, start, end, the index of its parent span and the
    operation it belongs to.  Start and end come from ``clock``
    (``Speedometer.clock``, so calibration chunks are not charged to spans).
    Counts are recorded at the same boundaries.  A disabled tracer records
    nothing, so the untraced runs pay one generator per span and nothing
    else.
    """

    def __init__(self, enabled: bool, clock):
        self.enabled = enabled
        self.clock = clock
        self.spans: list[dict] = []
        self.counts: dict[str, int] = {}
        self.op: str | None = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        record = {
            "name": name,
            "start": self.clock(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "op": self.op,
        }
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record["end"] = self.clock()
            self._stack.pop()

    def call(self, name: str, fn, *args):
        """``fn(*args)`` inside a span called ``name``."""
        with self.span(name):
            return fn(*args)

    def count(self, name: str, n: int = 1) -> None:
        if self.enabled:
            self.counts[name] = self.counts.get(name, 0) + n


def layer_times(spans: list[dict], factors: dict) -> dict[str, dict[str, float]]:
    """Normalised total and self time per span name; ``factors`` maps each
    span's operation to its speed factor.  Self time is a span's duration
    minus the part covered by its children; spans of one thread nest, so the
    children of a span never overlap one another."""
    durations = [(s["end"] - s["start"]) * factors[s["op"]] for s in spans]
    covered = [0.0] * len(spans)
    for s, duration in zip(spans, durations):
        if s["parent"] is not None:
            covered[s["parent"]] += duration
    out: dict[str, dict[str, float]] = {}
    for s, duration, child in zip(spans, durations, covered):
        entry = out.setdefault(s["name"], {"total_s": 0.0, "self_s": 0.0, "spans": 0})
        entry["total_s"] += duration
        entry["self_s"] += duration - child
        entry["spans"] += 1
    return out


# ------------------------------------------------------------- operations


class Pass:
    """One pass over a workload's timed operations.

    Calling it as ``op(name, fn, *args)`` times one operation and returns its
    value, or None when it raised.  Output checks run outside the timed region and
    reject an operation with ``reject``; an operation fails at most once.
    ``durations`` are normalised seconds, ``raw`` the seconds measured, and
    ``factors`` the speed factor of each operation.  The chunk sampled after
    one operation also opens the window of the next.
    """

    def __init__(self, tracer: Tracer, meter: Speedometer):
        self.tracer = tracer
        self.meter = meter
        self.durations: dict[str, float] = {}
        self.raw: dict[str, float] = {}
        self.factors: dict[str, float] = {}
        self.failures: dict[str, str] = {}
        self._first = meter.sample()

    def __call__(self, name: str, fn, *args):
        if name in self.durations:
            raise ValueError(f"operation {name!r} ran twice in one pass")
        self.tracer.op = name
        start = self.meter.clock()
        try:
            value = fn(*args)
        except Exception as exc:  # a failed operation is a result, not a crash
            value = None
            self.failures[name] = f"{type(exc).__name__}: {exc}"
        self.raw[name] = self.meter.clock() - start
        self.tracer.op = None
        last = self.meter.sample()
        self.factors[name] = self.meter.factor(self._first)
        self._first = last
        self.durations[name] = self.raw[name] * self.factors[name]
        return value

    def reject(self, name: str, ok: bool, reason: str) -> None:
        if not ok:
            self.failures.setdefault(name, f"check: {reason}")

    @property
    def wall_s(self) -> float:
        return sum(self.durations.values())

    @property
    def raw_wall_s(self) -> float:
        return sum(self.raw.values())


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# ---------------------------------------------------------------- context


def git_commit() -> str:
    """The checkout's commit, read from .git without running git; "unknown"
    when the checkout is not a repository."""
    git = CHECKOUT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_context(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "reference_chunk_s": REFERENCE_CHUNK_S,
        "tick_s": TICK_S,
    }
