"""Low-CPU liveness: the stages that only read broadcast state run as plain
tasks, so their pipelines finish on a 1- or 2-CPU Ray cluster with the same
rows as the 4-CPU test session.  A stage that holds CPUs in a pool while
its upstream tasks wait hangs such a cluster.

Each (query, num_cpus) case runs in a fresh subprocess with its own
``ray.init(num_cpus=N)`` under a timeout, so a hang fails one case instead
of wedging the test run.  ``crawl_corpus`` is pinned at 2 CPUs only: at 1
CPU its url-keyed hash join still waits on Ray's shuffle aggregators."""

from __future__ import annotations

import os
import signal
import subprocess
import sys

import pandas as pd
import pytest

SF = "/root/testdata/sf0.001"
REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TIMEOUT_S = 240

CASES = [(name, n) for name in ("intersections_full", "pages_nearest_way",
                                "pages_segment_snap") for n in (1, 2)]
CASES.append(("crawl_corpus", 2))

_CHILD = """
import sys
import ray
name, cpus, sf, out = sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4]
ray.init(address="local", num_cpus=cpus, object_store_memory=300 * 2**20,
         include_dashboard=False, logging_level="ERROR")
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False
from osm_intersections_ray.queries import queries
queries()[name](sf).to_pandas().to_parquet(out)
ray.shutdown()
"""


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df.reindex(sorted(df.columns), axis=1)
    return df.sort_values(list(df.columns), kind="stable").reset_index(drop=True)


def _run_child(name: str, cpus: int, out: str) -> None:
    # own session: on timeout the whole process group (driver, raylet,
    # workers) is killed, so a hung cluster cannot outlive the case
    proc = subprocess.Popen([sys.executable, "-c", _CHILD, name, str(cpus),
                             SF, out], cwd=REPO, start_new_session=True,
                            stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    try:
        log, _ = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail(f"{name} at num_cpus={cpus} did not finish in {TIMEOUT_S} s")
    assert proc.returncode == 0, log.decode(errors="replace")[-3000:]


@pytest.mark.parametrize("name,cpus", CASES)
def test_low_cpu_rows_match_4cpu_session(ray_session, tmp_path, name, cpus):
    from osm_intersections_ray.queries import queries

    out = str(tmp_path / "rows.parquet")
    _run_child(name, cpus, out)
    got = _canon(pd.read_parquet(out))
    want = _canon(queries()[name](SF).to_pandas())
    assert len(want) > 0
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
