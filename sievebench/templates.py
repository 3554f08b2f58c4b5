"""Per-camera traffic resampled from the Table I workloads.

``fleet_replay`` and ``serve_churn`` need hundreds to thousands of cameras.
Rather than draw frame counts, encoded sizes and I-frame sets from guessed
ranges, every camera is built from one of the five ``VideoWorkload``
records that ``experiments.common.prepare_workload`` makes for the Table I
datasets: the records Figures 4 and 5 replay, with byte sizes scaled to
each dataset's nominal resolution by ``core.pipeline.build_workload``.  A
camera is its template's clip repeated a whole number of times (every
frame index and the ground-truth timeline shifted per copy), with one
seeded factor scaling all three of its encoded sizes, so the semantic,
default and I-frame sizes keep the ratios the encoder gave them.  Every
dataset serves the same number of cameras.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import List, Optional

import numpy as np

from repro.core.pipeline import VideoWorkload
from repro.datasets.registry import ALL_DATASETS, get_dataset
from repro.experiments.common import (DATASET_CACHE_ENV, ExperimentConfig,
                                      prepare_workload)
from repro.video.events import Event, EventTimeline

#: Template clips per input size: 5 s at render scale 0.05 (the clips
#: ``onboard_cold`` onboards), 2 s at 0.04 for the smoke tests.
CONFIGS = {"full": ExperimentConfig(duration_seconds=5.0, render_scale=0.05),
           "tiny": ExperimentConfig(duration_seconds=2.0, render_scale=0.04)}

#: Range of the per-camera factor on its template's encoded sizes: scenes
#: of one dataset differ in detail and so in bit rate, not in structure.
BYTE_JITTER = (0.8, 1.25)


@contextmanager
def no_artifact_cache():
    """Prepare footage without the artifact cache: every set-up is cold."""
    previous = os.environ.get(DATASET_CACHE_ENV)
    os.environ[DATASET_CACHE_ENV] = "0"
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop(DATASET_CACHE_ENV)
        else:
            os.environ[DATASET_CACHE_ENV] = previous


def table1_templates(size: str) -> List[VideoWorkload]:
    """The five Table I workloads, onboarded from cold (canonical split)."""
    with no_artifact_cache():
        return [prepare_workload(name, CONFIGS[size], split="full")
                for name in ALL_DATASETS]


def balanced_draw(templates: List[VideoWorkload], count: int,
                  rng) -> List[VideoWorkload]:
    """``count`` cameras' templates: every dataset equally often, in a
    seeded order, so the mix of datasets does not change with the seed."""
    kinds = rng.permutation(np.arange(count) % len(templates))
    return [templates[int(kind)] for kind in kinds]


def labelled(template: VideoWorkload) -> bool:
    """Whether the template's dataset has ground-truth labels (Table I)."""
    return get_dataset(template.name).has_labels


def tile_timeline(timeline: EventTimeline, copies: int) -> EventTimeline:
    length = timeline.num_frames
    return EventTimeline([
        Event(event.start_frame + copy * length,
              event.end_frame + copy * length, event.labels)
        for copy in range(copies) for event in timeline.events])


def resample(template: VideoWorkload, rng, copies: int, name: str,
             keep_timeline: bool) -> VideoWorkload:
    """One camera: ``copies`` repeats of ``template``, bytes jittered."""
    length = template.num_frames
    num_frames = length * copies

    def tiled(indices):
        return [index + copy * length for copy in range(copies)
                for index in indices]

    scale = copies * float(rng.uniform(*BYTE_JITTER))
    semantic = tiled(template.semantic_samples)
    # Uniform sampling matched in count to the I-frames, as build_workload.
    interval = max(num_frames // len(semantic), 1)
    timeline: Optional[EventTimeline] = None
    if keep_timeline and template.timeline is not None:
        timeline = tile_timeline(template.timeline, copies)
    return VideoWorkload(
        name=name, num_frames=num_frames,
        nominal_resolution=template.nominal_resolution,
        semantic_bytes=int(template.semantic_bytes * scale),
        default_bytes=int(template.default_bytes * scale),
        semantic_iframe_bytes=int(template.semantic_iframe_bytes * scale),
        semantic_samples=semantic,
        mse_samples=tiled(template.mse_samples),
        uniform_samples=list(range(0, num_frames, interval)),
        resized_frame_bytes=template.resized_frame_bytes,
        timeline=timeline)
