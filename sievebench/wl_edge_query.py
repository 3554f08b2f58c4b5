"""``edge_query``: closed-loop queries against stored semantic encodings.

Set-up onboards one camera per Table I dataset with decodable payloads:
render, scene-cut analysis, tuner (the same parameter rule as
``core.pipeline.build_workload``), one payload encode, serialisation.  The
stored footage is the datasets' canonical ``full`` split, so it does not
depend on the seed; the seed draws the query order.  One operation is one
query by the single client:

1. ``IFrameSeeker.seek_serialized`` over the stored container,
2. ``EncodedVideo.deserialize`` and ``VideoDecoder.decode_keyframes``,
3. ``classify_frames`` over the decoded I-frames (default batch size),
4. ``core.metrics.propagate_labels``: the oracle detector's labels of the
   decoded I-frames carried to every frame of the clip.
"""

from __future__ import annotations

import numpy as np

from repro.codec.bitstream import EncodedVideo
from repro.codec.decoder import VideoDecoder
from repro.codec.encoder import VideoEncoder
from repro.codec.gop import DEFAULT_PARAMETERS
from repro.codec.iframe_seeker import IFrameSeeker
from repro.core.metrics import propagate_labels
from repro.core.tuner import SemanticEncoderTuner, TuningGrid
from repro.datasets.registry import ALL_DATASETS, get_dataset
from repro.experiments.common import ExperimentConfig, prepare_dataset
from repro.nn.oracle import OracleDetector
from repro.nn.yolo_lite import build_yolo_lite, classify_frame, classify_frames

from .checks import accuracy_of, own_propagate, psnr_db, uniform_samples
from .templates import no_artifact_cache

#: Whole rounds a run makes at least, however long they take.
MIN_ROUNDS = 1
SETUP_REPEATS = 1

SIZES = {"full": ExperimentConfig(duration_seconds=20.0, render_scale=0.1),
         "tiny": ExperimentConfig(duration_seconds=2.0, render_scale=0.04)}

#: Lowest PSNR accepted between a decoded I-frame and its rendered source
#: (at the default quality of 75 these clips' I-frames decode at about 29 dB).
MIN_PSNR_DB = 25.0

#: Decoded frames per camera re-classified one at a time in the NN check.
NN_SAMPLE = 3


class Camera:
    def __init__(self, name: str, config: ExperimentConfig) -> None:
        # Stored footage needs no artifact cache: nothing is prepared twice.
        with no_artifact_cache():
            prepared = prepare_dataset(name, config, split="full")
        self.name = name
        self.timeline = prepared.timeline
        self.labelled = get_dataset(name).has_labels
        video = prepared.video
        self.num_frames = video.metadata.num_frames
        if self.timeline is not None:
            parameters = SemanticEncoderTuner(
                TuningGrid(), DEFAULT_PARAMETERS).tune_from_activities(
                    prepared.activities, self.timeline, name).best_parameters
        else:
            gop = max(int(round(5.0 * video.metadata.fps)), 1)
            parameters = DEFAULT_PARAMETERS.with_(gop_size=gop,
                                                  scenecut_threshold=0.0)
        encoded = VideoEncoder(parameters).encode(
            video, materialise_payload=True, activities=prepared.activities)
        self.container = encoded.serialize()
        self.keyframes = encoded.keyframe_indices
        self.source = {index: video.frame(index).to_grayscale()
                       for index in self.keyframes}
        # Filled by the first query of this camera.
        self.answer = None
        self.decoded = None
        self.mismatched = False


class State:
    """The workload's set-up: the stored cameras, the model and the tallies."""

    def __init__(self, seed: int, size: str) -> None:
        self.rng = np.random.default_rng(seed)
        config = SIZES[size]
        self.cameras = [Camera(name, config) for name in ALL_DATASETS]
        self.model = build_yolo_lite()
        self.seeker = IFrameSeeker()
        self.decoder = VideoDecoder()
        self.frames = 0
        self.failures = []


def query(state: State, camera: Camera):
    """One edge query; returns (seek result, frames, labels, probs, answer)."""
    _, _, seek = state.seeker.seek_serialized(camera.container)
    encoded = EncodedVideo.deserialize(camera.container)
    frames = state.decoder.decode_keyframes(encoded)
    labels, probabilities = classify_frames(state.model,
                                            [frame.data for frame in frames])
    answer = propagate_labels(
        camera.timeline, [frame.index for frame in frames])
    return seek, frames, labels, probabilities, answer


def run_round(state: State, ops) -> None:
    classes = set(state.model.classes)
    for position in state.rng.permutation(len(state.cameras)):
        camera = state.cameras[position]
        result = None
        with ops.op():
            result = query(state, camera)
        if result is None:
            continue
        seek, frames, labels, probabilities, answer = result
        state.frames += camera.num_frames
        indices = [frame.index for frame in frames]
        if seek.keyframe_indices != indices or indices != camera.keyframes:
            state.failures.append(f"{camera.name}: seek found "
                                  f"{seek.keyframe_indices}, decoded {indices}")
        if not set(labels) <= classes:
            state.failures.append(f"{camera.name}: labels outside the classes")
        if not np.allclose(probabilities.sum(axis=1), 1.0, rtol=0, atol=1e-9):
            state.failures.append(f"{camera.name}: softmax rows do not sum to 1")
        if camera.answer is None:
            camera.answer = answer
            camera.decoded = frames
        elif answer != camera.answer:
            camera.mismatched = True


def finish(state: State) -> dict:
    failures = list(dict.fromkeys(state.failures))
    oracle_accuracy = []
    uniform_accuracy = []
    frames_decoded = 0
    for camera in state.cameras:
        if camera.answer is None:
            failures.append(f"{camera.name}: never answered")
            continue
        if camera.mismatched:
            failures.append(f"{camera.name}: answers differ between queries")
        frames = camera.decoded
        indices = [frame.index for frame in frames]
        frames_decoded += len(frames)
        for frame in frames:
            psnr = psnr_db(frame.data, camera.source[frame.index])
            if psnr < MIN_PSNR_DB:
                failures.append(f"{camera.name}: I-frame {frame.index} decodes "
                                f"at {psnr:.1f} dB < {MIN_PSNR_DB} dB")
        sample = [frame.data for frame in frames[:NN_SAMPLE]]
        batched, _ = classify_frames(state.model, sample)
        single = [classify_frame(state.model, data)[0] for data in sample]
        if batched != single:
            failures.append(f"{camera.name}: batched labels {batched} != "
                            f"per-frame labels {single}")
        # The benchmark's own propagation of the oracle's I-frame labels.
        detected = OracleDetector(camera.timeline).detect_batch(
            indices, [frame.data for frame in frames])
        own = own_propagate(detected, camera.num_frames, indices)
        if own != camera.answer:
            failures.append(f"{camera.name}: answer differs from the "
                            "recomputed label propagation")
        if camera.labelled:
            truth = [camera.timeline.labels_at(index)
                     for index in range(camera.num_frames)]
            oracle_accuracy.append(accuracy_of(own, truth))
            uniform = uniform_samples(camera.num_frames, len(indices))
            uniform_accuracy.append(accuracy_of(
                own_propagate([truth[index] for index in uniform],
                              camera.num_frames, uniform), truth))
    label_accuracy = float(np.mean(oracle_accuracy))
    if label_accuracy < float(np.mean(uniform_accuracy)):
        failures.append(f"label accuracy {label_accuracy:.4f} is below uniform "
                        f"sampling's {np.mean(uniform_accuracy):.4f}")
    return {"failures": failures, "frames": state.frames,
            "label_accuracy": label_accuracy, "frames_decoded": frames_decoded}
