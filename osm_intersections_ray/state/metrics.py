"""Run metrics + lineage (SURVEY.md section 4 'Checkpoint / resume' row and
A8 skew counters as an engine-level facility).

``MetricsRun`` collects per-stage wall clock, row counts, and free-form
lineage edges (input -> stage -> output), then writes one JSON report.  The
reference's ``getMS`` stage timers (js/geo.js:129-139) and ``bins.stats``
skew counters (js/gpsBins.js:118-137) are the model; here they also feed the
bench harness."""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager


class MetricsRun:
    def __init__(self, name: str):
        self.name = name
        self.started = time.time()
        self.stages: list[dict] = []
        self.lineage: list[dict] = []

    @contextmanager
    def stage(self, stage_name: str, **meta):
        t0 = time.time()
        rec = {"stage": stage_name, **meta}
        try:
            yield rec
        finally:
            rec["sec"] = round(time.time() - t0, 3)
            self.stages.append(rec)

    def edge(self, src: str, stage: str, dst: str):
        self.lineage.append({"src": src, "stage": stage, "dst": dst})

    def report(self) -> dict:
        return {
            "run": self.name,
            "started": self.started,
            "finished": time.time(),
            "stages": self.stages,
            "lineage": self.lineage,
        }

    def write(self, path: str) -> dict:
        rep = self.report()
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as f:
            json.dump(rep, f, indent=1)
        return rep

