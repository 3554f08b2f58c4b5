"""``serve_churn``: session churn through the live service on a virtual clock.

A round is one ``StreamingService`` lifetime.  For the first seconds of
arrivals (``SIZES``), a fixed number of cameras arrive per virtual second;
each pushes one chunk (one second of footage) per virtual second for its
lifetime and then closes.  ``status()`` is polled every ``STATUS_EVERY`` virtual
seconds, so status ticks are a fifth of all ticks and neither reported
percentile sits on the boundary between the two kinds of tick.  One
operation is one tick of one virtual second: admissions, pushes, closes,
``run_for(1.0)`` and, on polling ticks, ``status()``.  The round's last
tick drains the service and folds it into a ``fleet_report``.  Every round
makes the same ticks, so ticks are keyed by their index: the percentiles
are over one round's ticks, each timed by its fastest repeat.

Every camera streams one of the five Table I workloads, resampled by
``templates.resample`` to its lifetime (the seed draws which camera gets
which template, and the byte factor), planned under SiEVE's deployment (``plan_camera_job``) and
sliced into one chunk per second with ``chunk_camera_job``.  The load is
sized so that no admission or push is refused.
"""

from __future__ import annotations

import numpy as np

from repro.core.deployment import DeploymentMode
from repro.core.pipeline import plan_camera_job
from repro.service.service import StreamingService
from repro.service.session import TenantPolicy, chunk_camera_job

from .templates import (CONFIGS, balanced_draw, labelled, resample,
                        table1_templates)

#: Whole rounds a run makes at least, however long they take.
MIN_ROUNDS = 1
SETUP_REPEATS = 3

#: (cameras arriving per virtual second, seconds of arrivals, lifetime).
#: A lifetime is a whole number of template clips (``templates.CONFIGS``).
SIZES = {"full": (4, 60, 30), "tiny": (2, 6, 4)}
STATUS_EVERY = 5
EDGES = 8


class State:
    """The workload's set-up: every camera's planned chunks and the tallies."""

    def __init__(self, seed: int, size: str) -> None:
        self.rate, self.arrival_s, self.lifetime = SIZES[size]
        templates = table1_templates(size)
        copies, rest = divmod(self.lifetime, CONFIGS[size].duration_seconds)
        if rest:
            raise ValueError("a lifetime must be whole template clips")
        rng = np.random.default_rng(seed)
        planned = []
        cameras = balanced_draw(templates, self.rate * self.arrival_s, rng)
        for index, template in enumerate(cameras):
            workload = resample(template, rng, int(copies),
                                f"{template.name}-{index:05d}",
                                labelled(template))
            job = plan_camera_job(workload, DeploymentMode.IFRAME_EDGE_CLOUD_NN)
            planned.append((chunk_camera_job(job, self.lifetime),
                            job.accuracy))
        self.chunks = [chunks for chunks, _ in planned]
        # The planned label accuracy of the labelled streams: what their
        # sampled frames deliver, which the service carries but cannot move.
        self.label_accuracy = float(np.mean([accuracy for _, accuracy
                                             in planned
                                             if accuracy == accuracy]))
        self.ticks = self.arrival_s + self.lifetime
        self.capacity = self.rate * self.lifetime
        self.frames = 0
        self.frames_for_inference = 0
        self.failures = []
        self.state_sizes = {}


class _Round:
    """The load generator's view of one service lifetime."""

    def __init__(self, state: State) -> None:
        policy = TenantPolicy("default", max_sessions=state.capacity,
                              max_pending_chunks=8)
        self.service = StreamingService(num_edge_servers=EDGES,
                                        max_sessions=state.capacity,
                                        tenants=[policy])
        self.live = {}  # camera -> [chunk list index, next chunk position]
        self.opened = 0
        self.closed = 0
        self.chunks = self.frames = self.lan_bytes = self.wan_bytes = 0
        self.report = None
        self.status = None  # the latest poll, checked outside the tick


def _tick(state: State, run: _Round, tick: int) -> None:
    service = run.service
    if tick < state.arrival_s:
        for _ in range(state.rate):
            camera = f"camera-{run.opened:05d}"
            service.open_session(camera)
            run.live[camera] = [run.opened, 0]
            run.opened += 1
    for camera, cursor in list(run.live.items()):
        chunks = state.chunks[cursor[0]]
        chunk = chunks[cursor[1]]
        service.push_frames(camera, chunk)
        cursor[1] += 1
        run.chunks += 1
        run.frames += chunk.num_frames
        run.lan_bytes += chunk.camera_edge_bytes
        run.wan_bytes += chunk.edge_cloud_bytes
        if cursor[1] == len(chunks):
            service.close_session(camera)
            del run.live[camera]
            run.closed += 1
    service.run_for(1.0)
    if tick % STATUS_EVERY == STATUS_EVERY - 1:
        run.status = service.status()
    if tick == state.ticks - 1:
        service.drain()
        run.report = service.fleet_report()


def _check_status(state: State, run: _Round, status) -> None:
    recount = sum(1 for session in status.sessions
                  if session.state != "closed")
    if status.active_sessions != recount:
        state.failures.append(f"status reports {status.active_sessions} "
                              f"active sessions, its snapshots hold {recount}")
    if not len(run.live) <= status.active_sessions <= run.opened:
        state.failures.append("status active count outside the generator's "
                              "open/opened bounds")
    for station in status.stations:
        if station.utilisation > 1.0:
            state.failures.append(f"{station.name} utilisation "
                                  f"{station.utilisation} > 1")


def run_round(state: State, ops) -> None:
    run = None
    for tick in range(state.ticks):
        with ops.op(key=tick):
            if run is None:
                run = _Round(state)
            _tick(state, run, tick)
        if run is not None and run.status is not None:
            _check_status(state, run, run.status)
            run.status = None
    _check_round(state, run)


def _check_round(state: State, run: _Round) -> None:
    """Conservation against the generator's own tallies, after the drain."""
    if run is None or run.report is None:
        state.failures.append("a round did not finish")
        return
    service, report = run.service, run.report
    expected = state.rate * state.arrival_s
    if run.opened != expected or run.closed != expected:
        state.failures.append(f"opened {run.opened}, closed {run.closed} "
                              f"sessions, expected {expected}")
    sessions = service.ingest.sessions.values()
    completed = sum(session.chunks_completed for session in sessions)
    if completed != run.chunks:
        state.failures.append(f"{completed} chunks completed, {run.chunks} "
                              "pushed")
    if (report.total_frames, report.camera_edge_bytes,
            report.edge_cloud_bytes) != (run.frames, run.lan_bytes,
                                         run.wan_bytes):
        state.failures.append("frames or bytes not conserved through the "
                              "service")
    if service.ingest.sessions_rejected or service.ingest.pushes_rejected:
        state.failures.append("the service refused admissions or pushes")
    if service.ingest.active_sessions != 0:
        state.failures.append("sessions still active after the drain")
    state.frames += report.total_frames
    state.frames_for_inference = report.frames_for_inference
    links = list(service.lan_links.values()) + service.wan_links
    state.state_sizes = {
        "service.sessions_retained": len(service.ingest.sessions),
        "service.lan_links_retained": len(service.lan_links),
        "net.transfer_records": sum(len(link.link.transfers)
                                    for link in links),
    }


def finish(state: State) -> dict:
    return {"failures": list(dict.fromkeys(state.failures)),
            "frames": state.frames, "label_accuracy": state.label_accuracy,
            "frames_decoded": state.frames_for_inference,
            "state_sizes": state.state_sizes}
