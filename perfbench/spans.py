"""Spans around calls into flowbm's layers, recorded from outside the package.

`Tracer.install` replaces each function in `SITES` on the module where its
caller looks it up (for example `flowbm.training.e_step_batch`, not
`flowbm.sampling.e_step_batch`, for the E-step inside `train_vpf`) with a
wrapper that records a span: name, start, end, parent and an optional
work count.  Spans stay in memory until `write` dumps them.  Nothing in
`src/` is changed, and `uninstall` restores every original.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass


def _rows(args, kwargs, result):
    return len(args[2])  # one RngStream per row


def _samples(args, kwargs, result):
    return len(args[3])  # one RngStream per confabulation


def _images(args, kwargs, result):
    return len(args[1])


def _pairs(args, kwargs, result):
    return len(args[0]) * len(args[1])


def _grad_bytes(args, kwargs, result):
    g, _ = result
    return g.d_weights.nbytes + g.d_biases.nbytes


def _state_bytes(args, kwargs, result):
    m, _, st = args[:3]
    arrays = (m.weights, m.biases, st.m1_w, st.m2_w, st.m1_b, st.m2_b)
    return sum(a.nbytes for a in arrays)


def _file_bytes(args, kwargs, result):
    return os.path.getsize(args[0])


# (module where the caller looks the function up, attribute, span name,
# work count taken from the call).  Two sites may share a span name.
SITES = (
    ("flowbm.cli", "load_binary_dataset", "data.load", None),
    ("flowbm.cli", "load_idx", "data.load", None),
    ("flowbm.cli", "generate_batch", "sampling.generate", _samples),
    ("flowbm.cli", "tile_images", "images.write", None),
    ("flowbm.cli", "write_pgm", "images.write", None),
    ("flowbm.training", "train_vpf", "training.train_vpf", None),
    ("flowbm.training", "e_step_batch", "sampling.estep", _rows),
    ("flowbm.sampling", "e_step_batch", "sampling.estep", _rows),
    ("flowbm.mpf", "gradient_and_objective", "mpf.grad", _grad_bytes),
    ("flowbm.optim", "step", "optim.step", _state_bytes),
    ("flowbm.metrics", "corrupt", "metrics.corrupt", None),
    ("flowbm.metrics", "reconstruct_batch", "metrics.reconstruct", _images),
    ("flowbm.metrics", "parzen_ll", "metrics.parzen", _pairs),
    ("flowbm.checkpoint", "save_checkpoint", "checkpoint.save", _file_bytes),
    ("flowbm.checkpoint", "load_checkpoint", "checkpoint.load", None),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    work: float | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans on the calling thread.

    Every wrapped function is called from the benchmark's own thread; the
    package's worker threads call only unwrapped internals, so one stack
    is enough.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = Span(name, time.perf_counter(), 0.0, parent)
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            self._stack.pop()
            record.end = time.perf_counter()

    def _wrap(self, fn, name, work):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name == "training.train_vpf" and kwargs.get("epoch_callback"):
                kwargs["epoch_callback"] = self._wrap(
                    kwargs["epoch_callback"], "cli.epoch_callback", None)
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            if work is not None:
                record.work = work(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        for module_name, attr, name, work in SITES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, work))

    def uninstall(self) -> None:
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.duration
        return own

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(
                    {"name": s.name, "start": s.start, "end": s.end,
                     "parent": s.parent, "work": s.work}) + "\n")


def wrapper_cost(calls: int = 20000, repeats: int = 5) -> float:
    """Seconds one wrapped call adds to a direct call, timed on a no-op.

    The fastest of `repeats` timings of each side is used, so that noise
    from other processes does not enter the estimate.
    """
    tracer = Tracer()

    def noop():
        return None

    wrapped = tracer._wrap(noop, "noop", None)
    best = {}
    for fn in (noop, wrapped) * repeats:
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        elapsed = time.perf_counter() - start
        best[fn] = min(best.get(fn, elapsed), elapsed)
        tracer.spans.clear()
    return max(0.0, (best[wrapped] - best[noop]) / calls)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 when there are no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def session_layers(tracer: Tracer, first: int, train_walls: list[float]) -> dict:
    """Per-layer values from the spans of one session, tracer.spans[first:].

    `train_walls` are the train commands' wall times measured outside
    their spans; the gap to the spans' summed self times shows whether the
    spans account for the whole command.
    """
    spans = tracer.spans[first:]
    own = tracer.self_times()[first:]
    total: dict[str, float] = {}
    work: dict[str, float] = {}
    durations: dict[str, list[float]] = {}
    for s in spans:
        total[s.name] = total.get(s.name, 0.0) + s.duration
        work[s.name] = work.get(s.name, 0.0) + (s.work or 0.0)
        durations.setdefault(s.name, []).append(s.duration)

    def t(name):
        return total.get(name, 0.0)

    def per_unit(name, scale):  # seconds per unit of work, scaled
        return t(name) / work[name] * scale if work.get(name) else 0.0

    def mean_work(name):
        return work.get(name, 0.0) / len(durations[name]) if name in durations else 0.0

    def under(s, root):
        while s.parent is not None:
            s = tracer.spans[s.parent]
            if s.name == root:
                return True
        return False

    # An epoch runs from its E-step to the start of its end-of-epoch callback.
    epochs, vpf_self = [], 0.0
    for i, s in enumerate(spans):
        if s.name == "training.train_vpf":
            vpf_self += own[i]
            kids = [c for c in spans if c.parent == first + i]
            starts = [c.start for c in kids if c.name == "sampling.estep"]
            ends = [c.start for c in kids if c.name == "cli.epoch_callback"]
            epochs += [b - a for a, b in zip(starts, ends)]
    train_self = sum(o for s, o in zip(spans, own) if s.name == "cli.train" or under(s, "cli.train"))
    return {
        "cli.self_s": sum(o for s, o in zip(spans, own) if s.name.startswith("cli.")),
        "data.load_s": t("data.load"),
        "sampling.estep_s": t("sampling.estep"),
        "sampling.estep_us_per_row": per_unit("sampling.estep", 1e6),
        "sampling.generate_s": t("sampling.generate"),
        "sampling.generate_us_per_sample": per_unit("sampling.generate", 1e6),
        "mpf.grad_calls": len(durations.get("mpf.grad", [])),
        "mpf.grad_bytes": mean_work("mpf.grad"),
        "optim.step_calls": len(durations.get("optim.step", [])),
        "optim.state_bytes": mean_work("optim.step"),
        "training.epoch_s": statistics.median(epochs) if epochs else 0.0,
        "training.epoch_sum_s": sum(epochs),
        "training.self_s": vpf_self,
        "training.mstep_share": (t("mpf.grad") + t("optim.step")) / sum(epochs) if epochs else 0.0,
        "metrics.corrupt_calls": len(durations.get("metrics.corrupt", [])),
        "metrics.corrupt_s": t("metrics.corrupt"),
        "metrics.reconstruct_us_per_image": per_unit("metrics.reconstruct", 1e6),
        "metrics.parzen_s": t("metrics.parzen"),
        "metrics.parzen_pairs_per_s": work.get("metrics.parzen", 0.0) / t("metrics.parzen")
        if t("metrics.parzen") else 0.0,
        "checkpoint.save_s": t("checkpoint.save"),
        "checkpoint.load_s": t("checkpoint.load"),
        "checkpoint.bytes_written": work.get("checkpoint.save", 0.0),
        "images.write_s": t("images.write"),
        "trace.train_self_gap_s": sum(train_walls) - train_self,
        "spans": len(spans),
        "grad_ms": [d * 1e3 for d in durations.get("mpf.grad", [])],
        "step_ms": [d * 1e3 for d in durations.get("optim.step", [])],
    }


def run_layers(sessions: list[dict], paired: list[float]) -> dict:
    """Per-layer values of a run: medians over its traced sessions, per-call
    percentiles pooled over them, and the tracing overhead per session.

    `paired` holds, for each pair of adjacent sessions, the traced wall
    time minus the untraced one.  The span cost is the median span count
    of a traced session times the calibrated cost of one wrapped call.
    """
    grad = [x for s in sessions for x in s["grad_ms"]]
    step = [x for s in sessions for x in s["step_ms"]]
    out = {name: statistics.median(s[name] for s in sessions)
           for name in sessions[0] if name not in ("grad_ms", "step_ms", "spans")}
    out.update({
        "mpf.grad_ms_p50": percentile(grad, 0.5),
        "mpf.grad_ms_p90": percentile(grad, 0.9),
        "optim.step_ms_p50": percentile(step, 0.5),
        "optim.step_ms_p90": percentile(step, 0.9),
        "trace.overhead_s": statistics.median(paired),
        "trace.span_cost_s": statistics.median(s["spans"] for s in sessions) * wrapper_cost(),
    })
    return out
