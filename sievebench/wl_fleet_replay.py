"""``fleet_replay``: batch replays of a seeded fleet resampled from Table I.

Set-up onboards the five Table I workloads from cold
(``templates.table1_templates``) and resamples them into a fleet of
``VideoWorkload`` records, one camera each, every dataset equally often:
the seed draws which camera gets which template, its length (whole
repeats of the template clip) and its byte factor.  One camera in ``LABELLED_EVERY`` keeps its tiled ground-truth
timeline when its dataset is labelled, so the replays report a label
accuracy.  One operation is one
``EndToEndSimulation.run`` of one deployment mode at one edge-server count
on the default single-process path; a round replays every mode at every
edge count in a seeded order.
"""

from __future__ import annotations

import numpy as np

from repro.core.deployment import ALL_DEPLOYMENT_MODES, DeploymentMode
from repro.core.pipeline import EndToEndSimulation

from .checks import fifo_completion_times, own_propagation_accuracy
from .templates import balanced_draw, labelled, resample, table1_templates

#: Whole rounds a run makes at least: seven rounds of fifteen replays keep
#: at least ten replays above the 90th percentile on a slow host.
MIN_ROUNDS = 7
SETUP_REPEATS = 3

#: Cameras in the fleet, the edge-server counts replayed and the range of
#: template repeats per camera.  Full size: 5 s templates repeated 2 to 12
#: times, so cameras hold 10 to 60 s of footage (60 s is the experiments'
#: default clip length).
SIZES = {"full": (1500, (1, 4, 16), (2, 12)),
         "tiny": (60, (1, 4), (2, 4))}

#: Every replay evaluates each labelled camera's accuracy frame by frame;
#: on every camera of a labelled dataset that would make planning, not the
#: event loop, most of a replay.  The accuracy is a mean over cameras, so a
#: sample of them gives it.
LABELLED_EVERY = 10

SIEVE_MODE = DeploymentMode.IFRAME_EDGE_CLOUD_NN

#: Relative tolerance of the FIFO-recursion check on completion times.
RTOL = 1e-9


class State:
    """The workload's set-up: the fleet and one simulation per edge count."""

    def __init__(self, seed: int, size: str) -> None:
        num_cameras, edge_counts, (low, high) = SIZES[size]
        templates = table1_templates(size)
        rng = np.random.default_rng(seed)
        self.workloads = []
        for index, template in enumerate(balanced_draw(templates, num_cameras,
                                                       rng)):
            self.workloads.append(resample(
                template, rng, int(rng.integers(low, high + 1)),
                f"{template.name}-{index:05d}",
                index % LABELLED_EVERY == 0 and labelled(template)))
        self.simulations = {count: EndToEndSimulation(self.workloads,
                                                      num_edge_servers=count)
                            for count in edge_counts}
        self.replays = [(mode, count) for count in edge_counts
                        for mode in ALL_DEPLOYMENT_MODES]
        self.order_rng = np.random.default_rng(seed + 1)
        self.frames = 0
        # (mode, edges) -> list of per-camera end-time arrays, one per replay.
        self.end_times = {}
        self.reports = {}


def run_round(state: State, ops) -> None:
    for position in state.order_rng.permutation(len(state.replays)):
        mode, count = state.replays[position]
        report = None
        with ops.op():
            report = state.simulations[count].run(mode)
        if report is None:
            continue
        state.frames += report.total_frames
        ends = np.array([outcome.end_seconds
                         for outcome in report.fleet.outcomes])
        state.end_times.setdefault((mode, count), []).append(ends)
        state.reports.setdefault((mode, count), report)


def finish(state: State) -> dict:
    failures = []
    for (mode, count), replays in sorted(state.end_times.items(),
                                         key=lambda item: str(item[0])):
        simulation = state.simulations[count]
        jobs = simulation.plan_jobs(mode)
        expected_by_camera = fifo_completion_times(jobs, count,
                                                   simulation.config)
        expected = np.array([expected_by_camera[job.camera] for job in jobs])
        for ends in replays:
            if not np.allclose(ends, expected, rtol=RTOL, atol=0):
                worst = float(np.max(np.abs(ends - expected) / expected))
                failures.append(f"{mode.name} at {count} edges: completion "
                                f"times off the FIFO recursion by {worst:.3g}")
                break
    labelled = [w for w in state.workloads if w.timeline is not None]
    own = float(np.mean([own_propagation_accuracy(w.timeline,
                                                  w.semantic_samples)
                         for w in labelled]))
    sieve_reports = [report for (mode, _), report in state.reports.items()
                     if mode is SIEVE_MODE]
    decoded = sum(len(w.semantic_samples) for w in state.workloads)
    for report in sieve_reports:
        if abs(report.accuracy - own) > 1e-12:
            failures.append(f"SiEVE accuracy {report.accuracy} != recomputed "
                            f"{own}")
        if report.frames_for_inference != decoded:
            failures.append(f"SiEVE replay decoded {report.frames_for_inference}"
                            f" frames, the fleet has {decoded} I-frames")
    if len(state.reports) != len(state.replays):
        failures.append("not every replay ran")
    return {"failures": failures, "frames": state.frames,
            "label_accuracy": own, "frames_decoded": decoded}
