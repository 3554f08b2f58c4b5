"""``onboard_cold``: cold onboarding of a fixed camera set, one per operation.

Every round onboards the same five cameras, one per Table I dataset, in a
seeded order, each from cold: the in-process artifact cache is cleared and
the on-disk cache directory is emptied before the round.  One operation is
one ``experiments.common.prepare_workload`` call — render, scene-cut
analysis, tuner, two size-only encodes, MSE baseline fit and the two
artifact-store writes.
"""

from __future__ import annotations

import os
import shutil

import numpy as np

from repro.core.metrics import evaluate_sampling
from repro.datasets import diskcache
from repro.datasets.registry import ALL_DATASETS, get_dataset
from repro.experiments.common import clear_prepared_cache, prepare_workload

from .checks import own_propagation_accuracy
from .templates import CONFIGS

#: Whole rounds a run makes at least, however long they take.
MIN_ROUNDS = 1
SETUP_REPEATS = 3

#: Clip length and render scale of the onboarded cameras: the template
#: clips that ``fleet_replay`` and ``serve_churn`` resample.
SIZES = CONFIGS

#: Fields of a VideoWorkload that must repeat exactly across rounds and
#: survive the artifact-store round trip.
FIELDS = ("num_frames", "semantic_bytes", "default_bytes",
          "semantic_iframe_bytes", "semantic_samples", "mse_samples",
          "uniform_samples", "resized_frame_bytes")


class State:
    """The workload's set-up: the camera set, its order and the run's tallies."""

    def __init__(self, seed: int, size: str) -> None:
        self.config = SIZES[size]
        self.rng = np.random.default_rng(seed)
        self.cameras = list(ALL_DATASETS)
        self.frames = 0
        # First result per camera, and any later round that differed.
        self.reference = {}
        self.mismatches = []


def _fields(workload):
    return tuple(getattr(workload, name) for name in FIELDS)


def _empty_cache() -> None:
    """Delete the run's artifact cache (never the user-level default)."""
    if not os.environ.get(diskcache.CACHE_DIR_ENV):
        raise RuntimeError("onboard_cold empties the artifact cache: run it "
                           "through run.py, which points REPRO_CACHE_DIR at "
                           "a directory of its own")
    shutil.rmtree(diskcache.cache_dir(), ignore_errors=True)


def run_round(state: State, ops) -> None:
    # Cold start for the whole round: nothing in memory, nothing on disk.
    clear_prepared_cache()
    _empty_cache()
    for name in state.rng.permutation(state.cameras):
        workload = None
        with ops.op():
            workload = prepare_workload(str(name), state.config)
        if workload is None:
            continue
        state.frames += workload.num_frames
        reference = state.reference.setdefault(str(name), workload)
        if _fields(reference) != _fields(workload):
            state.mismatches.append(str(name))


def finish(state: State) -> dict:
    failures = [f"{name}: onboarding is not deterministic across rounds"
                for name in sorted(set(state.mismatches))]
    # Artifact-store round trip: a warm load must rebuild every field.
    clear_prepared_cache()
    accuracies = []
    frames_decoded = 0
    for name, workload in sorted(state.reference.items()):
        warm = prepare_workload(name, state.config)
        if _fields(warm) != _fields(workload):
            failures.append(f"{name}: warm artifact differs from the cold one")
        samples = workload.semantic_samples
        if (not samples or samples[0] != 0 or samples != sorted(set(samples))
                or samples[-1] >= workload.num_frames):
            failures.append(f"{name}: malformed semantic I-frame indices")
        if workload.semantic_iframe_bytes > workload.semantic_bytes:
            failures.append(f"{name}: I-frame bytes exceed the whole encoding")
        frames_decoded += len(samples)
        if get_dataset(name).has_labels:
            program = evaluate_sampling(workload.timeline, samples).accuracy
            own = own_propagation_accuracy(workload.timeline, samples)
            if abs(program - own) > 1e-12:
                failures.append(f"{name}: accuracy {program} != recomputed "
                                f"{own}")
            accuracies.append(own)
    if len(state.reference) != len(state.cameras):
        failures.append("not every camera was onboarded")
    _empty_cache()
    return {"failures": failures, "frames": state.frames,
            "label_accuracy": float(np.mean(accuracies)) if accuracies else 0.0,
            "frames_decoded": frames_decoded}
