"""Traffic generation: synthetic patterns, matrices and applications."""

from .apps import (APPLICATIONS, ApplicationGraph, H264_PUBLISHED_WEIGHTS,
                   PEAK_NODE_RATE_AT_SPEED1, REFERENCE_FPS, TaskEdge,
                   VCE_PUBLISHED_WEIGHTS, h264_encoder, vce_encoder)
from .injection import (InjectionProcess, MatrixTraffic, PatternTraffic,
                        PiecewiseRateTraffic, TrafficSpec)
from .matrix import TrafficMatrix
from .patterns import (PATTERN_REGISTRY, ComplementTraffic,
                       HotspotTraffic, NeighborTraffic, ShuffleTraffic,
                       TornadoTraffic, TrafficPattern, TransposeTraffic,
                       UniformTraffic, as_pattern_ref, make_pattern,
                       pattern_names, register_pattern)

__all__ = [
    "APPLICATIONS",
    "ApplicationGraph",
    "ComplementTraffic",
    "H264_PUBLISHED_WEIGHTS",
    "HotspotTraffic",
    "InjectionProcess",
    "MatrixTraffic",
    "NeighborTraffic",
    "PATTERN_REGISTRY",
    "PEAK_NODE_RATE_AT_SPEED1",
    "PatternTraffic",
    "PiecewiseRateTraffic",
    "REFERENCE_FPS",
    "ShuffleTraffic",
    "TaskEdge",
    "TornadoTraffic",
    "TrafficMatrix",
    "TrafficPattern",
    "TrafficSpec",
    "TransposeTraffic",
    "UniformTraffic",
    "VCE_PUBLISHED_WEIGHTS",
    "as_pattern_ref",
    "h264_encoder",
    "make_pattern",
    "pattern_names",
    "register_pattern",
    "vce_encoder",
]
