"""End-to-end and per-layer benchmark of the flowbm command-line user path.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload train-rbm --seed 1 --seconds 30 --trace 0

A run writes seeded synthetic IDX files, then repeats closed-loop sessions
of `flowbm.cli.main` commands in this process for `--seconds` seconds and
checks every command's outputs.  With `--trace 0` it reports the
end-to-end metrics named in BENCHMARK.json; with `--trace 1` it alternates
untraced and traced sessions and reports the per-layer metrics measured
by `spans.Tracer`.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.  README.md in this
directory describes the workloads and which metric shows what.
"""

from __future__ import annotations

import os

# BLAS is pinned before numpy loads, so a workload computes on exactly its
# --threads count of threads.  Spawned helper processes inherit this.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import ctypes
import io
import json
import math
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from multiprocessing import get_context, resource_tracker
from pathlib import Path

import checks
from checks import CheckFailed

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_REPEATS = 3
MB = 1e6


@dataclass(frozen=True)
class Workload:
    """Sizes of one workload; README.md says why each was chosen."""

    layout: str
    intra: str | None
    threads: int
    train_rows: int
    test_rows: int
    epochs: int
    resume_from: int | None  # checkpoint epoch a resumed run starts from
    train_in_setup: bool  # set-up trains the evaluated checkpoint, not a warm-up
    gen_count: int
    recon_images: int
    recon_trials: int
    ll_samples: int
    ll_test: int
    prior_rows: int


WORKLOADS = {
    "train-rbm": Workload("784-196", None, 1, 1000, 300, 3, 1, False,
                          200, 150, 1, 400, 200, 400),
    "train-deep": Workload("784-196-196-64", "1,1,1", 2, 1000, 300, 3, None, False,
                           200, 150, 1, 400, 200, 400),
    # 1024 = two of the package's 512-row shards, so generate, reconstruct and
    # the eval-ll E-step and sampler all take the threaded path.
    "eval-deep": Workload("784-196-196-64", "1,1,1", 2, 1500, 1024, 2, None, True,
                          1024, 1024, 1, 1024, 300, 1024),
}


def import_flowbm():
    """Import flowbm from the checkout's src/, or exit if it is not there."""
    if not (SRC / "flowbm" / "__init__.py").is_file():
        sys.exit(f"perfbench: no flowbm sources under {SRC}; run from a source checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import flowbm
    from flowbm import cli

    if Path(flowbm.__file__).resolve().parent != (SRC / "flowbm").resolve():
        sys.exit(f"perfbench: imported flowbm from {flowbm.__file__}, not {SRC}")
    return cli


def environment() -> dict:
    """Versions, BLAS thread count and usable cores, recorded with each result."""
    import numpy as np
    import scipy

    blas_version = blas_threads = None
    try:
        blas_version = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (TypeError, KeyError):
        pass
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib_path in sorted(libs):
        lib = ctypes.CDLL(lib_path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                blas_threads = getter()
                break
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": blas_version,
        "blas_threads": blas_threads,
        "nproc": len(os.sched_getaffinity(0)),
    }


def cpu_ticks() -> tuple[int, int] | None:
    """(steal, total) jiffies over all CPUs from /proc/stat, or None."""
    try:
        with open("/proc/stat", encoding="utf-8") as fh:
            fields = [int(x) for x in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return fields[7], sum(fields)


def steal_share(before, after) -> float | None:
    """Share of the machine's CPU time the hypervisor took between two reads."""
    if before is None or after is None or after[1] == before[1]:
        return None
    return (after[0] - before[0]) / (after[1] - before[1])


def run_cli(cli, argv: list[str], tracer=None) -> tuple[float, str]:
    """Run one flowbm command in this process; returns (wall seconds, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    span = tracer.span("cli." + argv[0]) if tracer else contextlib.nullcontext()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), span:
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects bad flags this way
        code = exc.code
    except Exception:
        raise CheckFailed(f"{argv[0]} raised:\n{traceback.format_exc()}") from None
    wall = time.perf_counter() - start
    if code != 0:
        raise CheckFailed(f"{argv[0]} exited {code}: {err.getvalue().strip()}")
    return wall, out.getvalue()


def warm_checker() -> None:
    import_flowbm()


def setup_train(argv: list[str]) -> tuple[float, str]:
    """Set-up training; returns (wall, error).  eval-deep runs it in the
    checker process, so that it leaves no memory behind in the measuring
    process."""
    try:
        wall, _ = run_cli(import_flowbm(), argv)
    except CheckFailed as exc:
        return 0.0, str(exc)
    return wall, ""


def train_argv(wl: Workload, seed: int, images: Path, out: Path) -> list[str]:
    argv = ["train", "--images", str(images), "--layout", wl.layout, "--method", "vpf",
            "--minibatch", "40", "--epochs", str(wl.epochs), "--out", str(out),
            "--seed", str(seed), "--threads", str(wl.threads)]
    if wl.intra:
        argv += ["--intra", wl.intra]
    if wl.resume_from:
        argv += ["--checkpoint-every", "1"]
    return argv


class Session:
    """One closed-loop pass over a workload's commands, with output checks."""

    def __init__(self, cli, checker, wl: Workload, seed: int, data: dict, ckpt: Path | None):
        self.cli, self.checker = cli, checker
        self.wl, self.seed, self.data, self.ckpt = wl, seed, data, ckpt
        self.attempted = self.failed = 0
        self.errors: list[str] = []
        self.final_hash: str | None = None
        self.train_walls: list[float] = []  # this session's train commands

    def _step(self, fn, *args):
        self.attempted += 1
        try:
            return fn(*args)
        except (CheckFailed, OSError, ValueError) as exc:
            self.failed += 1
            self.errors.append(str(exc))
            return None

    def _check(self, fn, *args):
        return self.checker.submit(fn, *args).result()

    def _common(self) -> list[str]:
        return ["--seed", str(self.seed), "--threads", str(self.wl.threads)]

    def _train(self, run: Path, tracer) -> dict:
        argv = train_argv(self.wl, self.seed, self.data["train"], run)
        wall, _ = run_cli(self.cli, argv, tracer)
        self.train_walls.append(wall)
        objective = checks.epochs_csv(run / "epochs.csv")
        size, digest = self._check(checks.checkpoint_file, run / "ckpt-final.bin")
        if self.final_hash not in (None, digest):
            raise CheckFailed("final checkpoint differs from an earlier session's")
        self.final_hash = digest
        return {"wall": wall, "rows": self.wl.train_rows * self.wl.epochs,
                "objective": objective, "mb": size / MB}

    def _resume(self, run: Path, resumed: Path, tracer) -> dict:
        wl = self.wl
        start = run / f"ckpt-epoch-{wl.resume_from:05d}.bin"
        argv = ["train", "--images", str(self.data["train"]), "--resume", str(start),
                "--epochs", str(wl.epochs), "--out", str(resumed)] + self._common()
        wall, _ = run_cli(self.cli, argv, tracer)
        self.train_walls.append(wall)
        checks.epochs_csv(resumed / "epochs.csv")
        # Resuming is bit-exact: it must end on the uninterrupted run's bytes.
        self._check(checks.checkpoint_file, resumed / "ckpt-final.bin", run / "ckpt-final.bin")
        return {"wall": wall, "rows": wl.train_rows * (wl.epochs - wl.resume_from)}

    def _generate(self, out: Path, tracer) -> dict:
        argv = ["generate", "--checkpoint", str(self.ckpt), "--count", str(self.wl.gen_count),
                "--init", "uniform", "--r", "5", "--out", str(out)] + self._common()
        wall, _ = run_cli(self.cli, argv, tracer)
        self._check(checks.probabilities_csv, out / "probabilities.csv", self.wl.gen_count)
        return {"rate": self.wl.gen_count / wall}

    def _reconstruct(self, out: Path, tracer) -> dict:
        wl = self.wl
        argv = ["reconstruct", "--checkpoint", str(self.ckpt), "--images", str(self.data["test"]),
                "--pattern", "all", "--trials", str(wl.recon_trials),
                "--limit", str(wl.recon_images), "--out", str(out)] + self._common()
        wall, _ = run_cli(self.cli, argv, tracer)
        return {"rate": wl.recon_images * 4 * wl.recon_trials / wall,
                "l1": checks.recon_csv(out / "recon.csv")}

    def _eval_ll(self, tracer) -> dict:
        wl = self.wl
        argv = ["eval-ll", "--checkpoint", str(self.ckpt), "--test-images", str(self.data["test"]),
                "--limit-test", str(wl.ll_test), "--n-samples", str(wl.ll_samples),
                "--init", "prior", "--data", str(self.data["train"]),
                "--limit", str(wl.prior_rows), "--sigma", "0.2"] + self._common()
        wall, stdout = run_cli(self.cli, argv, tracer)
        return {"rate": wl.ll_samples / wall, "ll": checks.parzen_line(stdout)}

    def run(self, directory: Path, tracer=None) -> dict:
        """One session; returns the end-to-end values its commands produced."""
        shutil.rmtree(directory, ignore_errors=True)
        directory.mkdir(parents=True)
        self.train_walls = []
        values: dict = {}
        if not self.wl.train_in_setup:
            run, resumed = directory / "run", directory / "resumed"
            train = self._step(self._train, run, tracer)
            parts = [train]
            if self.wl.resume_from:
                parts.append(self._step(self._resume, run, resumed, tracer))
            if all(parts):
                values["train_rows_per_s"] = (sum(p["rows"] for p in parts)
                                              / sum(p["wall"] for p in parts))
            if train:
                values["objective_last"] = train["objective"]
                values["checkpoint_mb"] = train["mb"]
            self.ckpt = run / "ckpt-final.bin"
        gen = self._step(self._generate, directory / "generate", tracer)
        rec = self._step(self._reconstruct, directory / "reconstruct", tracer)
        ll = self._step(self._eval_ll, tracer)
        if gen:
            values["generate_samples_per_s"] = gen["rate"]
        if rec:
            values["reconstruct_images_per_s"] = rec["rate"]
            values["recon_l1"] = rec["l1"]
        if ll:
            values["eval_ll_samples_per_s"] = ll["rate"]
            values["parzen_ll"] = ll["ll"]
        return values


def setup(checker, wl: Workload, seed: int) -> tuple[dict, Path | None, dict]:
    """Writes the data and trains on it, SETUP_REPEATS times.

    On eval-deep the training makes the checkpoint the sessions evaluate.
    On the train-* workloads it is the session's own train command, run in
    this process as a warm-up.  Either way a set-up takes seconds: on a
    shared 2-vCPU VM the speed of one thread drifts by up to 25% over about
    a second, so writing the data alone (0.05 s) would time one moment of
    that drift, not the set-up.

    Returns the data paths, the checkpoint to evaluate and the set-up
    values: the median set-up time and, on eval-deep, the training rate,
    last objective and size of the checkpoint it evaluates.
    """
    import synth

    times, rates, digests, values = [], [], set(), {}
    ckpt = None
    for repeat in range(SETUP_REPEATS):
        directory = WORK / f"setup-{repeat}"
        shutil.rmtree(directory, ignore_errors=True)
        start = time.perf_counter()
        data = synth.write_dataset(directory / "data", seed, wl.train_rows, wl.test_rows)
        argv = train_argv(wl, seed, data["train"], directory / "ckpt")
        if wl.train_in_setup:
            wall, error = checker.submit(setup_train, argv).result()
        else:
            wall, error = setup_train(argv)
        if error:
            sys.exit(f"perfbench: set-up training failed: {error}")
        times.append(time.perf_counter() - start)
        size, digest = checker.submit(checks.checkpoint_file,
                                      directory / "ckpt" / "ckpt-final.bin").result()
        digests.add(digest)
        if wl.train_in_setup:
            ckpt = directory / "ckpt" / "ckpt-final.bin"
            rates.append(wl.train_rows * wl.epochs / wall)
            values["objective_last"] = checks.epochs_csv(directory / "ckpt" / "epochs.csv")
            values["checkpoint_mb"] = size / MB
    if len(digests) > 1:
        sys.exit("perfbench: set-up training gave different checkpoints for one seed")
    values["setup_s"] = statistics.median(times)
    if rates:
        values["train_rows_per_s"] = statistics.median(rates)
    print(f"data: density {data['density']:.4f}, {wl.train_rows} train and "
          f"{wl.test_rows} test images, seed {seed}")
    return data, ckpt, values


def measure(cli, checker, wl: Workload, args, data, ckpt) -> tuple[Session, list, dict]:
    """Closed loop for args.seconds.  Returns the session runner, the
    untraced sessions' values and the per-layer values.

    With tracing, a cold untraced session is followed by pairs of one
    untraced and one traced session, in alternating order, so that drift
    over the run cancels out of the paired wall-time differences.
    """
    import spans

    session = Session(cli, checker, wl, args.seed, data, ckpt)
    tracer = spans.Tracer() if args.trace else None
    untraced, layers, paired = [], [], []

    def one(traced: bool) -> float:
        first = len(tracer.spans) if traced else 0
        if traced:
            tracer.install()
        start = time.perf_counter()
        try:
            values = session.run(WORK / "session", tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        wall = time.perf_counter() - start
        if traced:
            layers.append(spans.session_layers(tracer, first, session.train_walls))
        else:
            untraced.append(values)
        return wall

    deadline = time.perf_counter() + args.seconds
    one(False)
    while time.perf_counter() < deadline or (tracer and not paired):
        if not tracer:
            one(False)
            continue
        order = (False, True) if len(paired) % 2 == 0 else (True, False)
        walls = {traced: one(traced) for traced in order}
        paired.append(walls[True] - walls[False])
    if tracer:
        tracer.write(WORK / f"spans-{args.workload}-seed{args.seed}.jsonl")
        return session, untraced, spans.run_layers(layers, paired)
    return session, untraced, {}


def end_to_end(names: list[str], sessions: list[dict], setup_values: dict) -> dict:
    """Median over the untraced sessions of each metric, or its set-up value."""
    out = {}
    for name in names:
        if name in setup_values:
            out[name] = setup_values[name]
        elif name == "peak_rss_mb":
            out[name] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MB
        else:
            samples = [s[name] for s in sessions if name in s]
            out[name] = statistics.median(samples) if samples else math.nan
            print(f"{name} per session: " + " ".join(f"{x:.6g}" for x in samples))
    return out


def run_workload(cli, wl: Workload, args) -> tuple[dict, Session, list, dict]:
    """Set up and measure with a checker process that is shut down on return."""
    WORK.mkdir(exist_ok=True)
    with ProcessPoolExecutor(1, mp_context=get_context("spawn")) as checker:
        checker.submit(warm_checker).result()
        data, ckpt, setup_values = setup(checker, wl, args.seed)
        return (setup_values,) + measure(cli, checker, wl, args, data, ckpt)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metric_specs = spec["per_layer" if args.trace else "end_to_end"]
    wl = WORKLOADS[args.workload]
    cli = import_flowbm()
    env = environment()
    ticks = cpu_ticks()
    try:
        setup_values, session, untraced, layers = run_workload(cli, wl, args)
        env["steal_share"] = steal_share(ticks, cpu_ticks())
    finally:
        for path in WORK.glob("setup-*"):
            shutil.rmtree(path, ignore_errors=True)
        shutil.rmtree(WORK / "session", ignore_errors=True)
        # The spawn context started multiprocessing's resource tracker; stop
        # it and wait for it, so that no process this run started outlives it.
        resource_tracker._resource_tracker._stop()

    # Hypervisor steal slows every wall-clock rate; a set of runs taken under
    # different steal is spotted here.
    print("env " + json.dumps(env, sort_keys=True))
    for error in session.errors:
        print(f"check failed: {error}", file=sys.stderr)
    print(f"sessions: {len(untraced)} untraced; commands attempted {session.attempted}, "
          f"failed {session.failed}, failed_frac {session.failed / session.attempted:.4f}")
    names = [m["name"] for m in metric_specs]
    values = layers if args.trace else end_to_end(names, untraced, setup_values)
    correct = session.failed == 0
    metrics = {}
    for m in metric_specs:
        value = values[m["name"]]
        print(f"{m['name']} {value:.6g} {m['unit']}")
        if not math.isfinite(value):  # a metric whose every command failed
            correct, value = False, None
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    print(json.dumps({"correct": correct, "attempted": session.attempted,
                      "failed": session.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
