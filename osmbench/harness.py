"""Run plumbing: the Ray session, process accounting, and the tracer.

Nothing here imports Ray at module level: ``run.py`` first checks that the
engine is present, then sets ``PYTHONPATH`` so that Ray's workers (which do
not see this process's ``sys.path``) import the engine from the same checkout.
"""

from __future__ import annotations

import os
import re
import shutil
import statistics
import tempfile
import threading
import time
from contextlib import contextmanager

# Every operation in the workloads finishes at 4 Ray CPUs; at Ray's default
# of nproc (1 on a 1-core host) the actor-pool pipelines hang, and
# crawl_corpus hangs at 2.  The count is fixed so it does not depend on the
# host.
RAY_CPUS = 4
OBJECT_STORE_BYTES = 1_000_000_000
AF_UNIX_MAX = 107
# longest socket path Ray builds under its temp dir:
# /session_YYYY-MM-DD_HH-MM-SS_ffffff_PID/sockets/plasma_store
RAY_SOCKET_SUFFIX = 66


class Session:
    """One local Ray cluster for the whole run; every process it starts is
    stopped in :meth:`close`, and its temp dir removed."""

    def __init__(self, root: str, work: str):
        self.root = root
        self.work = work
        self.temp_dir = work
        if len(work) + RAY_SOCKET_SUFFIX > AF_UNIX_MAX:
            # the checkout path is too long for Ray's unix sockets
            self.temp_dir = tempfile.mkdtemp(prefix="osmbench-ray")
        self.engine_file = None

    def open(self):
        import ray

        ray.init(address="local", num_cpus=RAY_CPUS,
                 object_store_memory=OBJECT_STORE_BYTES,
                 include_dashboard=False, logging_level="ERROR",
                 log_to_driver=False, _temp_dir=self.temp_dir)
        from ray.data import DataContext

        ctx = DataContext.get_current()
        ctx.enable_progress_bars = False
        ctx.print_on_execution_start = False

        @ray.remote(num_cpus=0)
        def engine_file():
            import osm_intersections_ray

            return osm_intersections_ray.__file__

        self.engine_file = ray.get(engine_file.remote())
        want = os.path.join(self.root, "osm_intersections_ray", "")
        if not self.engine_file.startswith(want):
            raise RuntimeError(f"workers import the engine from "
                               f"{self.engine_file}, not from {want}")

    def close(self):
        import ray

        procs = descendants()
        if ray.is_initialized():
            ray.shutdown()
        stop_processes(procs)
        if self.temp_dir != self.work:
            shutil.rmtree(self.temp_dir, ignore_errors=True)


def descendants() -> list:
    import psutil

    try:
        return psutil.Process(os.getpid()).children(recursive=True)
    except psutil.Error:
        return []


def stop_processes(procs: list, grace: float = 10.0) -> None:
    """Terminate what is still alive of ``procs``, then kill, and wait."""
    import psutil

    _gone, alive = psutil.wait_procs(procs, timeout=grace)
    for p in alive:
        try:
            p.terminate()
        except psutil.Error:
            pass
    _gone, alive = psutil.wait_procs(alive, timeout=5)
    for p in alive:
        try:
            p.kill()
        except psutil.Error:
            pass
    psutil.wait_procs(alive, timeout=5)


class RssSampler:
    """Peak of the summed RSS of this process and all its descendants
    (Ray's GCS, raylet, agents and workers), sampled on a thread."""

    def __init__(self, interval: float = 0.2):
        self.interval = interval
        self.peak = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def sample(self) -> None:
        import psutil

        total = 0
        me = psutil.Process(os.getpid())
        for p in [me] + descendants():
            try:
                total += p.memory_info().rss
            except psutil.Error:
                pass
        self.peak = max(self.peak, total)

    def _loop(self):
        while not self._stop.wait(self.interval):
            self.sample()

    def start(self):
        self.sample()
        self._thread.start()

    def stop(self):
        self._stop.set()
        if self._thread.is_alive():
            self._thread.join(timeout=5)


def median(values: list) -> float:
    return float(statistics.median(values)) if values else 0.0


# --------------------------------------------------------------------------
# tracing

_EXCHANGE_RE = re.compile(r"Sort|Aggregate|Shuffle|Join|Repartition", re.I)
_TASKS_RE = re.compile(r"(\d+) tasks executed")
_BLOCKS_RE = re.compile(r"(\d+) blocks produced")


class Tracer:
    """Spans and counts recorded from the benchmark's own calls.

    A span is (name, start, end, parent).  :meth:`materialize` executes a
    layer's output at a layer boundary and keeps the materialized dataset
    so the ``ray.*`` counts can be read from its ``Dataset.stats()``.
    :meth:`split` names the materializations an entry point performs
    internally, so those become child spans of the entry point's span."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []
        self._materialized: list = []
        self._orig_materialize = None

    @contextmanager
    def span(self, name: str):
        rec = {"name": name, "start": time.perf_counter(), "end": None,
               "parent": self._stack[-1] if self._stack else None}
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def materialize(self, ds):
        import ray.data as rd

        fn = self._orig_materialize or rd.Dataset.materialize
        out = fn(ds)
        self._materialized.append(out)
        return out

    @contextmanager
    def split(self, names: list[str]):
        """While active, the n-th ``Dataset.materialize()`` the engine
        calls becomes a span named ``names[n]`` (later ones are named after
        the last), and its row count is kept as ``<name>.rows``."""
        import ray.data as rd

        tracer = self
        orig = rd.Dataset.materialize
        self._orig_materialize = orig
        calls = [0]

        def traced(ds):
            name = names[min(calls[0], len(names) - 1)]
            calls[0] += 1
            with tracer.span(name):
                out = orig(ds)
            tracer._materialized.append(out)
            tracer.count(name + ".rows", out.count())
            return out

        rd.Dataset.materialize = traced
        try:
            yield
        finally:
            rd.Dataset.materialize = orig
            self._orig_materialize = None

    # ---- derived metrics

    def total(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans
                   if s["name"] == name)

    def self_time(self, name: str) -> float:
        """Summed span time of ``name`` minus the time of its children."""
        idx = [i for i, s in enumerate(self.spans) if s["name"] == name]
        t = 0.0
        for i in idx:
            s = self.spans[i]
            t += s["end"] - s["start"]
            t -= sum(c["end"] - c["start"] for c in self.spans
                     if c["parent"] == i)
        return t

    def ray_metrics(self) -> dict:
        """Counts from ``Dataset.stats()`` of every materialized stage.

        A stage's stats chain through its parents to everything upstream,
        both the other operators of the same execution (split at each
        all-to-all) and earlier materialized stages, so operators are
        de-duplicated by (name, start, end) across all stages."""
        ops = {}
        spilled = 0
        for ds in self._materialized:
            summary = ds._get_stats_summary()
            spilled += summary.dataset_bytes_spilled or 0
            todo = [summary]
            while todo:
                s = todo.pop()
                todo.extend(s.parents)
                for op in s.operators_stats:
                    ops[(op.operator_name, op.earliest_start_time,
                         op.latest_end_time)] = op
        tasks = 0
        skew = 0.0
        spans = []
        for op in ops.values():
            text = op.block_execution_summary_str or ""
            m = _TASKS_RE.search(text)
            tasks += int(m.group(1)) if m else 0
            if not _EXCHANGE_RE.search(op.operator_name):
                continue
            spans.append((op.earliest_start_time, op.latest_end_time))
            rows = op.output_num_rows or {}
            b = _BLOCKS_RE.search(text)
            if rows.get("sum") and b and int(b.group(1)):
                skew = max(skew, rows["max"] / (rows["sum"] / int(b.group(1))))
        exchange_s = 0.0
        end = None
        for s0, s1 in sorted(spans):  # union of the exchange intervals
            if end is None or s0 > end:
                exchange_s += s1 - s0
                end = s1
            elif s1 > end:
                exchange_s += s1 - end
                end = s1
        return {"ray.tasks": tasks, "ray.exchange_s": exchange_s,
                "ray.exchange_skew": skew, "ray.spilled_bytes": spilled}


@contextmanager
def watchdog(seconds: float, on_fire):
    """Call ``on_fire`` from a timer thread if the block outlives
    ``seconds``."""
    t = threading.Timer(seconds, on_fire)
    t.daemon = True
    t.start()
    try:
        yield
    finally:
        t.cancel()
