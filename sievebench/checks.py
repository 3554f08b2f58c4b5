"""Reference computations the workloads check the program against.

Each function here is written from the method's definition, not by calling
the program's own implementation of it, so a fault in the program shows as
a disagreement instead of being reproduced.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Sequence

import numpy as np


def own_propagate(frame_labels: Sequence[frozenset], num_frames: int,
                  samples: Sequence[int]) -> List[frozenset]:
    """Label propagation: each frame takes the labels of the latest sample.

    ``frame_labels`` maps a sampled frame index to the labels its detector
    returned; frames before the first sample are background.
    """
    labels = []
    current = frozenset()
    sampled = dict(zip(samples, frame_labels))
    for index in range(num_frames):
        if index in sampled:
            current = sampled[index]
        labels.append(current)
    return labels


def accuracy_of(predicted: Sequence[frozenset],
                truth: Sequence[frozenset]) -> float:
    """Share of frames whose predicted label set equals the truth."""
    return sum(1 for a, b in zip(predicted, truth) if a == b) / len(truth)


def own_propagation_accuracy(timeline, samples: Sequence[int]) -> float:
    """Per-frame accuracy of propagating ground-truth labels of ``samples``."""
    truth = [timeline.labels_at(index) for index in range(timeline.num_frames)]
    predicted = own_propagate([truth[index] for index in samples],
                              timeline.num_frames, samples)
    return accuracy_of(predicted, truth)


def uniform_samples(num_frames: int, count: int) -> List[int]:
    """``count`` evenly spaced frame indices starting at frame 0."""
    return [index * num_frames // count for index in range(count)]


def psnr_db(decoded: np.ndarray, source: np.ndarray) -> float:
    """Peak signal-to-noise ratio of an 8-bit plane against its source."""
    error = np.mean((decoded.astype(np.float64)
                     - source.astype(np.float64)) ** 2)
    return float("inf") if error == 0 else float(10 * np.log10(255.0 ** 2
                                                               / error))


def _link_seconds(size_bytes: int, bandwidth_mbps: float,
                  latency_ms: float) -> float:
    return (size_bytes * 8) / (bandwidth_mbps * 1e6) + latency_ms / 1e3


def fifo_completion_times(jobs, num_edges: int, config) -> Dict[str, float]:
    """Completion time of every camera job under FIFO queueing.

    Cameras are placed round-robin and all arrive at time 0.  Each edge is
    a tandem line of single-server FIFO queues (LAN link, edge compute, WAN
    link); the WAN departures of all edges feed one cloud queue with
    ``num_edges`` servers, served first come first served.
    """
    arrivals = []  # (time at the cloud, submission order, job)
    order = 0
    for edge in range(num_edges):
        lan_free = edge_free = wan_free = 0.0
        for job in jobs[edge::num_edges]:
            lan_free = lan_free + _link_seconds(
                job.camera_edge_bytes, config.camera_edge_bandwidth_mbps,
                config.camera_edge_latency_ms)
            edge_free = max(lan_free, edge_free) + job.edge_seconds
            wan_free = max(edge_free, wan_free) + _link_seconds(
                job.edge_cloud_bytes, config.edge_cloud_bandwidth_mbps,
                config.edge_cloud_latency_ms)
            arrivals.append((wan_free, order, job))
            order += 1
    arrivals.sort(key=lambda item: (item[0], item[1]))
    servers = [0.0] * num_edges
    done = {}
    for arrival, _, job in arrivals:
        free = heapq.heappop(servers)
        finish = max(arrival, free) + job.cloud_seconds
        heapq.heappush(servers, finish)
        done[job.camera] = finish
    return done
