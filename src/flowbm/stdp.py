"""Closed-form expected synaptic updates as a function of spike timing.

A pre-before-post spike pair separated by a small interval eps yields an
expected potentiation (1/eps) * exp(-delta_pre * eps); the reversed order
yields an expected depression -delta_post * exp(-delta_post * eps).  The
curve over signed intervals reproduces the classic timing-dependent
plasticity shape.  `emit_stdp_csv` formats the curve's CSV itself and
replaces the file whole, as `cli` does with each of its outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import checkpoint


@dataclass
class StdpPoint:
    """Signed spike-time difference (positive = pre before post) and the
    expected weight change at that interval."""

    dt: float
    dw: float


def stdp_curve(delta_pre: float, delta_post: float, dts) -> list[StdpPoint]:
    """Expected update at each signed interval; singular at dt = 0."""
    if not all(math.isfinite(rate) and rate > 0 for rate in (delta_pre, delta_post)):
        raise ValueError("firing rates must be positive and finite")
    points = []
    for dt in dts:
        dt = float(dt)
        if dt == 0.0:
            raise ValueError("spike-time difference 0 is singular")
        if not math.isfinite(dt):
            raise ValueError(f"spike-time difference {dt} is not finite")
        eps = abs(dt)
        if dt > 0:
            dw = (1.0 / eps) * math.exp(-delta_pre * eps)
        else:
            dw = -delta_post * math.exp(-delta_post * eps)
        points.append(StdpPoint(dt, dw))
    if not points:
        raise ValueError("no spike-time differences given")
    return points


def emit_stdp_csv(points: list[StdpPoint], path) -> None:
    """Two-column CSV (dt, dw, each value its `repr`) with a header row and
    `\\r\\n` line ends, built as text and written whole through
    `checkpoint.replacing`."""
    text = "dt,dw\r\n" + "".join(f"{p.dt!r},{p.dw!r}\r\n" for p in points)
    with checkpoint.replacing(path) as fh:
        fh.write(text.encode("utf-8"))
