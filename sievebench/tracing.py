"""In-memory span tracer and the layer wrappers it installs.

Spans are recorded only around calls *into* the program's layers, by
wrappers that :func:`install` swaps onto the layers' public functions for
the traced phase of a run and :func:`uninstall` removes again.  Nothing in
``src/`` knows about the tracer, so an untraced run executes the program
exactly as a user would.

Each span is ``(name, start, end, parent, op)``: ``parent`` is the index of
the enclosing span (``-1`` for an operation root) and ``op`` the id of the
benchmark operation that caused it.  Self time (duration minus the part
covered by direct children) and counts are folded in as spans close, so the
summary needs no second pass over the span list.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: Span name prefix of the benchmark's own operation roots; their self time
#: is the load generator's residual (work outside every layer call).
OP_PREFIX = "bench."


class Tracer:
    """Records nested spans and per-layer counts in memory."""

    def __init__(self) -> None:
        self.spans: List[Tuple[str, float, float, int, int]] = []
        self.self_seconds: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        self.op_id = -1
        # Open spans: [name, start, parent index, child seconds].
        self._stack: List[list] = []

    def begin(self, name: str) -> None:
        parent = self._stack[-1][2] if self._stack else -1
        # Reserve the span's slot now so children can name it as parent.
        self.spans.append((name, 0.0, 0.0, parent, self.op_id))
        self._stack.append([name, time.perf_counter(), len(self.spans) - 1,
                            0.0])

    def end(self) -> float:
        stop = time.perf_counter()
        name, start, index, child_seconds = self._stack.pop()
        duration = stop - start
        self.spans[index] = (name, start, stop, self.spans[index][3],
                             self.op_id)
        self.self_seconds[name] += duration - child_seconds
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][3] += duration
        return duration

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] += amount

    def write_jsonl(self, path: str) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, op in self.spans:
                handle.write(json.dumps({
                    "name": name, "start": start, "end": end,
                    "parent": parent, "op": op}) + "\n")

    def layer_summary(self) -> Tuple[List[Tuple[str, float, int]], float,
                                     float]:
        """``(rows, operation seconds, residual seconds)``.

        ``rows`` holds ``(layer span, self seconds, calls)`` for every
        non-operation span, largest first.
        """
        op_seconds = 0.0
        residual = 0.0
        rows = []
        for name, seconds in self.self_seconds.items():
            if name.startswith(OP_PREFIX):
                residual += seconds
            else:
                rows.append((name, seconds, self.calls[name]))
        for name, start, end, parent, _ in self.spans:
            if parent == -1 and name.startswith(OP_PREFIX):
                op_seconds += end - start
        rows.sort(key=lambda row: -row[1])
        return rows, op_seconds, residual


def _traced(tracer: Tracer, name: str, function: Callable,
            counter: Optional[Callable]) -> Callable:
    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        tracer.begin(name)
        try:
            result = function(*args, **kwargs)
        finally:
            tracer.end()
        if counter is not None:
            counter(tracer, result, args)
        return result
    return wrapper


def _count_len(metric: str):
    return lambda tracer, result, args: tracer.count(metric, len(result))


def _count_encode(tracer, encoded, args):
    tracer.count("codec.encode_frames", encoded.num_frames)
    tracer.count("codec.encode_iframes", encoded.num_keyframes)


def _count_store(tracer, path, args):
    tracer.count("datasets.cache_bytes", os.path.getsize(path))


def _count_seek(tracer, result, args):
    tracer.count("codec.frames_scanned", result[2].frames_scanned)


def _count_decode(tracer, frames, args):
    encoded = args[1]
    tracer.count("codec.frames_decoded", len(frames))
    tracer.count("codec.keyframe_bytes",
                 sum(frame.size_bytes for frame in encoded.iter_keyframes()))


def _count_forward(tracer, result, args):
    tracer.count("nn.frames_inferred", len(result[0]))
    tracer.count("nn.batches", 1)


def _count_fleet(tracer, report, args):
    tracer.count("dataflow.events", report.events_processed)


def _count_events(tracer, fired, args):
    tracer.count("dataflow.events", fired)


def _targets():
    """``(owner, attribute, span name, counter)`` of every traced call."""
    from repro.cluster.fleet import FleetOrchestrator
    from repro.codec.bitstream import EncodedVideo
    from repro.codec.decoder import VideoDecoder
    from repro.codec.encoder import VideoEncoder
    from repro.codec.iframe_seeker import IFrameSeeker
    from repro.core import pipeline
    from repro.core.tuner import SemanticEncoderTuner
    from repro.datasets import diskcache
    from repro.experiments import common
    from repro.nn import yolo_lite
    from repro.nn.model import SequentialModel
    from repro.service.service import StreamingService
    from repro.video.raw_video import GeneratedVideo

    from . import wl_edge_query

    return [
        # Compute half: cold onboarding.
        (common, "build_dataset", "video.render", None),
        (GeneratedVideo, "materialise", "video.render", None),
        (VideoEncoder, "analyze", "codec.analyze",
         _count_len("codec.analyze_frames")),
        (SemanticEncoderTuner, "tune_from_activities", "core.tune",
         lambda tracer, result, args: tracer.count(
             "core.tune_configs", len(result.results))),
        (VideoEncoder, "encode", "codec.encode", _count_encode),
        (pipeline, "score_video", "vision.mse", None),
        (diskcache, "store", "datasets.cache_store", _count_store),
        # Compute half: the edge query path.
        (IFrameSeeker, "seek_serialized", "codec.seek", _count_seek),
        (EncodedVideo, "deserialize", "codec.parse", None),
        (VideoDecoder, "decode_keyframes", "codec.decode", _count_decode),
        (yolo_lite, "preprocess_frames", "nn.preprocess", None),
        (SequentialModel, "predict_classes", "nn.forward", _count_forward),
        # Patched where the query imported it: the tuner and the fleet
        # planner call the same function for their own accounting.
        (wl_edge_query, "propagate_labels", "core.answer", None),
        # Simulator half: batch fleet replay.
        (pipeline.EndToEndSimulation, "run", "core.report", None),
        (pipeline.EndToEndSimulation, "plan_jobs", "core.plan",
         _count_len("core.jobs_planned")),
        (FleetOrchestrator, "run", "cluster.fleet", _count_fleet),
        # Simulator half: the live service.
        (StreamingService, "open_session", "service.admit",
         lambda tracer, result, args: tracer.count("service.sessions_opened")),
        (StreamingService, "push_frames", "service.push",
         lambda tracer, result, args: tracer.count("service.chunks_pushed")),
        (StreamingService, "close_session", "service.close", None),
        (StreamingService, "run", "service.loop", _count_events),
        (StreamingService, "status", "service.status",
         lambda tracer, result, args: tracer.count("service.status_calls")),
        (StreamingService, "fleet_report", "service.report", None),
    ]


def install(tracer: Tracer) -> List[Tuple[object, str, object]]:
    """Swap traced wrappers onto every layer target; returns the originals.

    Class attributes are replaced in the class ``__dict__`` (classmethods
    stay classmethods); module functions are replaced in the module the
    caller looks them up in, which is why ``build_dataset`` and
    ``score_video`` are patched where the program imported them to.
    """
    originals = []
    for owner, attribute, name, counter in _targets():
        original = owner.__dict__[attribute]
        if isinstance(original, classmethod):
            wrapped = classmethod(_traced(tracer, name, original.__func__,
                                          counter))
        else:
            wrapped = _traced(tracer, name, original, counter)
        setattr(owner, attribute, wrapped)
        originals.append((owner, attribute, original))
    return originals


def uninstall(originals: List[Tuple[object, str, object]]) -> None:
    """Restore what :func:`install` replaced."""
    for owner, attribute, original in reversed(originals):
        setattr(owner, attribute, original)
