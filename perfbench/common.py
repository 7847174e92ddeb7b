"""Pieces shared by every workload: spans, /proc CPU, percentiles, checks.

Nothing here imports ``repro``: these are the benchmark's own instruments.
"""

from __future__ import annotations

import json
import math
import os
from collections import defaultdict
from typing import Dict, List, Optional, Sequence

CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


# --------------------------------------------------------------------------- #
# Percentiles
# --------------------------------------------------------------------------- #
def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` in [0, 100] (NaN when empty)."""
    data = sorted(values)
    if not data:
        return float("nan")
    pos = (len(data) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


# --------------------------------------------------------------------------- #
# Process-tree CPU from /proc
# --------------------------------------------------------------------------- #
def _stat_fields(path: str) -> Optional[List[str]]:
    try:
        with open(path, "rb") as handle:
            raw = handle.read().decode("ascii", "replace")
    except OSError:
        return None
    # The command name may contain spaces; everything after the last ')'
    # is whitespace separated, starting with the state field (field 3).
    return raw[raw.rfind(")") + 2 :].split()


def proc_cpu_s(pid: int, tid: Optional[int] = None, children: bool = False) -> float:
    """CPU seconds (user + system) of a process, or of one of its threads.

    ``children=True`` adds the CPU of the process's reaped children
    (``cutime`` + ``cstime``), which is where a joined worker's time goes.
    A process that is gone reads 0.
    """
    path = f"/proc/{pid}/stat" if tid is None else f"/proc/{pid}/task/{tid}/stat"
    fields = _stat_fields(path)
    if fields is None:
        return 0.0
    ticks = int(fields[11]) + int(fields[12])
    if children:
        ticks += int(fields[13]) + int(fields[14])
    return ticks / CLOCK_TICKS


def host_ticks() -> tuple:
    """(steal, total) jiffies of the whole machine from ``/proc/stat``.

    Steal is time the hypervisor ran something else while a virtual CPU
    of this machine had work; every timing of the run includes it.
    """
    with open("/proc/stat", encoding="ascii") as handle:
        fields = [int(token) for token in handle.readline().split()[1:]]
    # user nice system idle iowait irq softirq steal (guest time is
    # already inside user and nice).
    return fields[7], sum(fields[:8])


def child_pids(pid: int) -> List[int]:
    """Direct children of ``pid`` (over all its threads)."""
    found: List[int] = []
    try:
        tids = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return found
    for tid in tids:
        try:
            with open(f"/proc/{pid}/task/{tid}/children", "r", encoding="ascii") as handle:
                found.extend(int(token) for token in handle.read().split())
        except OSError:
            continue
    return sorted(set(found))


def stop_children(timeout: float = 10.0) -> None:
    """Stop every process this one started and wait for each to end.

    Joins (or kills) the remaining ``multiprocessing`` children, then
    stops ``multiprocessing``'s resource tracker: left alone it outlives
    the benchmark while it reads EOF and unlinks what is still
    registered.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.join(timeout)
        if child.is_alive():
            child.kill()
            child.join()
    tracker = resource_tracker._resource_tracker
    with tracker._lock:
        if tracker._pid is not None:
            os.close(tracker._fd)
            os.waitpid(tracker._pid, 0)
            tracker._fd = None
            tracker._pid = None


# --------------------------------------------------------------------------- #
# Spans
# --------------------------------------------------------------------------- #
class Tracer:
    """In-memory spans: ``(name, start, end, parent, request id)``.

    Disabled, :meth:`add` returns ``-1`` and records nothing, so the
    untraced run pays one attribute test per call site.  Span times are
    ``time.monotonic()`` seconds, comparable across processes.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: List[tuple] = []

    def add(self, name: str, start: float, end: float, parent: int = -1, rid: int = -1) -> int:
        if not self.enabled:
            return -1
        self.spans.append((name, start, end, parent, rid))
        return len(self.spans) - 1

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent, rid) in enumerate(self.spans):
                record = {"id": index, "name": name, "start": start, "end": end, "parent": parent, "rid": rid}
                handle.write(json.dumps(record) + "\n")


def self_times(spans: Sequence[tuple], root: int) -> Dict[str, float]:
    """Wall time under ``root`` attributed to the deepest active spans.

    Sweeps the root's interval; every instant goes, in equal shares, to
    the active spans that have no active child.  The root's own share is
    its ``unattributed`` residual.  Children are clipped to their parent,
    so the returned self times sum to the root's duration exactly.
    """
    children: Dict[int, List[int]] = defaultdict(list)
    for index, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(index)
    # Collect the root's subtree with clipped intervals.
    intervals: Dict[int, tuple] = {root: (spans[root][1], spans[root][2])}
    stack = [root]
    while stack:
        parent = stack.pop()
        lo, hi = intervals[parent]
        for child in children.get(parent, ()):
            start, end = max(spans[child][1], lo), min(spans[child][2], hi)
            if end > start:
                intervals[child] = (start, end)
                stack.append(child)
    events = []
    for index, (start, end) in intervals.items():
        events.append((start, 1, index))
        events.append((end, 0, index))
    events.sort()
    active_children: Dict[int, int] = defaultdict(int)
    active = set()
    totals: Dict[str, float] = defaultdict(float)
    previous = None
    for when, kind, index in events:
        if previous is not None and when > previous and active:
            leaves = [span for span in active if active_children[span] == 0]
            share = (when - previous) / len(leaves)
            for span in leaves:
                name = "unattributed" if span == root else spans[span][0]
                totals[name] += share
        previous = when
        parent = spans[index][3] if index != root else -1
        if kind == 1:
            active.add(index)
            if parent in intervals:
                active_children[parent] += 1
        else:
            active.discard(index)
            if parent in intervals:
                active_children[parent] -= 1
    return dict(totals)


def print_breakdown(label: str, wall: float, totals: Dict[str, float]) -> None:
    """Human-readable per-layer self times of one lane."""
    print(f"[trace] {label}: wall {wall:.3f} s")
    for name, seconds in sorted(totals.items(), key=lambda item: -item[1]):
        print(f"[trace]   {name:<28} {seconds:9.3f} s  {100.0 * seconds / wall:6.2f}%")
    residual = wall - sum(totals.values())
    print(f"[trace]   {'(sum - wall)':<28} {-residual:9.6f} s")


# --------------------------------------------------------------------------- #
# Failure accounting
# --------------------------------------------------------------------------- #
class Checks:
    """Attempted vs failed operations, by failure class, plus hard checks.

    ``fail`` counts an operation failure (a 503, a transport error, ...):
    it lowers goodput and is reported, never filtered.  ``require`` is a
    correctness check on the program's outputs (a wrong slate, a version
    going backwards, a leaked segment, a misreported RMSE); any failed
    one makes the run incorrect and the command exit non-zero.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: Dict[str, int] = defaultdict(int)
        self.broken: List[str] = []

    def attempt(self, count: int = 1) -> None:
        self.attempted += count

    def fail(self, kind: str, count: int = 1) -> None:
        if count:
            self.failures[kind] += count

    def require(self, ok: bool, message: str) -> None:
        if not ok:
            self.broken.append(message)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    @property
    def correct(self) -> bool:
        return not self.broken
