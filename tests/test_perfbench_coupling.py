"""The benchmark under perfbench/ reads the package from outside: checkpoints
through `checks.checkpoint_file`, and spans through `spans.SITES`, which names
functions by module and attribute and whose work counters read call
arguments by position.  These tests run those readers on real calls and
check the names and positions, so a rename or a change to the store that
would break the benchmark fails here first.  Nothing under perfbench/ is
edited.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np

from flowbm import checkpoint, mpf, optim, training
from flowbm.cli import main
from flowbm.model import LayerSpec
from flowbm.optim import TrainConfig

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_perfbench(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_checkpoint_check_and_byte_counts_follow_the_store(synthetic_idx, tmp_path):
    checks, spans = load_perfbench("checks"), load_perfbench("spans")
    images, _, _, _ = synthetic_idx
    out = tmp_path / "run"
    assert main(["train", "--images", str(images), "--layout", "784-20", "--epochs", "1",
                 "--out", str(out)]) == 0
    final = out / "ckpt-final.bin"
    size, digest = checks.checkpoint_file(final)
    assert size == final.stat().st_size and len(digest) == 64

    ck = checkpoint.load_checkpoint(final)
    m, st, cfg = ck.machine(), ck.adam, ck.config
    e, n = m.layout.edges, m.layout.n
    assert e == 784 * 20
    batch = np.random.default_rng(0).integers(0, 2, (40, n))

    args = (m, batch, cfg.clamp_z)
    result = mpf.gradient_and_objective(*args)
    assert spans._grad_bytes(args, {}, result) == (e + n) * 8

    args = (m, result[0], st, cfg)
    assert spans._state_bytes(args, {}, optim.step(*args)) == (3 * e + 3 * n) * 8


# Argument positions that each `spans` work counter reads, by the parameter
# name it means there.  `_grad_bytes` reads only the result.
COUNTER_PARAMETERS = {
    "_rows": {2: "streams"},
    "_samples": {3: "streams"},
    "_images": {1: "corrupted"},
    "_pairs": {0: "samples", 1: "test"},
    "_state_bytes": {0: "m", 1: "g", 2: "st"},
    "_file_bytes": {0: "path"},
    "_grad_bytes": {},
}


def test_sites_resolve_and_counters_read_the_parameters_they_mean():
    spans = load_perfbench("spans")
    counters = set()
    for module_name, attr, _name, work in spans.SITES:
        fn = getattr(importlib.import_module(module_name), attr, None)
        assert callable(fn), f"{module_name}.{attr}"
        if work is None:
            continue
        counters.add(work.__name__)
        params = list(inspect.signature(fn).parameters)
        for index, expected in COUNTER_PARAMETERS[work.__name__].items():
            assert params[index] == expected, (module_name, attr, index)
    assert {"_rows", "_samples", "_images", "_state_bytes"} <= counters


def test_spans_time_the_prior_e_step_and_the_corruption(synthetic_idx, tmp_path):
    # `cli` looks `sampling.e_step_batch` up on the module at call time, so
    # the tracer's wrapper times the E-step behind eval-ll's prior; a name
    # imported into `cli` would escape it.
    spans = load_perfbench("spans")
    images = str(synthetic_idx[0])
    ck = tmp_path / "ck.bin"
    checkpoint.save_checkpoint(ck, training.init_state(LayerSpec((784, 12), (False,)), TrainConfig()))
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert main(["eval-ll", "--checkpoint", str(ck), "--test-images", images,
                     "--init", "prior", "--data", images, "--limit", "40",
                     "--n-samples", "20"]) == 0
        first = len(tracer.spans)
        assert main(["reconstruct", "--checkpoint", str(ck), "--images", images,
                     "--limit", "30", "--trials", "2", "--out", str(tmp_path / "rec")]) == 0
    finally:
        tracer.uninstall()
    names = [s.name for s in tracer.spans]
    estep = names.index("sampling.estep")
    assert estep < first and tracer.spans[estep].work == 40
    assert names[estep + 1] == "sampling.generate" and tracer.spans[estep + 1].work == 20
    assert names[first:].count("metrics.corrupt") == 2 * 4  # trials x patterns
