"""Command-line interface: train, generate, reconstruct, eval-ll,
stdp-curve, inspect.

The CLI owns the run directory: fixed file names (config.txt, epochs.csv,
ckpt-epoch-NNNNN.bin, ckpt-final.bin) so downstream tooling can locate
outputs, and it alone writes epochs.csv, one `training.EpochLog` per row.
generate writes probabilities.csv, one row per confabulation, each value
`%.8f`, comma-separated and `\n`-terminated (`images.write_csv`), through
a temporary file renamed into place, as checkpoints are.
Every setting has one spelling: flags are matched whole (no prefixes), a
flag given twice or one that the chosen mode would not read exits 2,
`--threads` defaults to 1 and no environment variable is read, and every
`TrainConfig` field has a string-valued flag of its own name only, which
`optim.parse_config_items` parses and checks; `--intra` is one 0 or 1 per
hidden layer, like the checkpoint's intra bytes.  The trainer (`method`: vpf,
cd or pcd) and its Gibbs steps (`k`) are ordinary config keys, so a run's
config.txt and checkpoints name the method that made them.  Image widths
are checked against the layout or checkpoint before --out is touched or
anything is sampled.

train holds one `checkpoint.Checkpoint`: `training.init_state` for a new
run, the --resume file otherwise.  Its config is the defaults (or the
resumed checkpoint's), then an optional key=value config file, then the
flags; the trainer advances it, and the same object is saved every
--checkpoint-every epochs and at the end.  generate, reconstruct and
eval-ll apply their --r and --intra-sweeps over the checkpoint's config
the same way.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import sys
from functools import partial
from pathlib import Path

import numpy as np

from . import checkpoint as ckpt_io
from . import metrics, stdp, training
from .data import load_binary_dataset, load_idx
from .model import LayerSpec, active_blocks, parse_number
from .optim import TrainConfig, load_config, parse_config_items
from .sampling import generate_batch, mean_activation_prior, row_streams
from .images import square_side, tile_images, write_csv, write_pgm

TAG_GENERATE = 11
TAG_RECON = 12
TAG_EVAL = 13

CONFIG_FLAGS = tuple(f.name for f in dataclasses.fields(TrainConfig))


class UsageError(Exception):
    pass


class _StoreOnce(argparse.Action):
    """argparse's default store action, except that a flag given twice is a
    usage error (exit 2) instead of silently taking its last value."""

    def __call__(self, parser, namespace, values, option_string=None):
        given = vars(namespace).setdefault("flags_given", set())
        if self.dest in given:
            raise argparse.ArgumentError(self, "given more than once")
        given.add(self.dest)
        setattr(namespace, self.dest, values)


def _add_threads(p: argparse.ArgumentParser) -> None:
    p.add_argument("--threads", type=int, default=1, help="worker threads")


def _threads(args) -> int:
    _require_positive("--threads", args.threads)
    return args.threads


def _require_positive(flag: str, value: int) -> None:
    if value < 1:
        raise UsageError(f"{flag} must be at least 1, got {value}")


def _add_config_flags(p: argparse.ArgumentParser, names: tuple[str, ...]) -> None:
    """One flag per `TrainConfig` field in `names`."""
    for name in names:
        p.add_argument("--" + name.replace("_", "-"), dest=name, type=str, default=None)
    p.set_defaults(config_flags=names)


def _build_config(args, base: TrainConfig) -> TrainConfig:
    """`base`, then the --config file if the command has one, then the flags
    that `_add_config_flags` gave the command."""
    cfg = base
    if getattr(args, "config", None):
        cfg = load_config(args.config, cfg)
    items = {name: getattr(args, name) for name in args.config_flags
             if getattr(args, name) is not None}
    return parse_config_items(items, cfg)


def _load_dataset(images, threshold: float, limit: int | None) -> np.ndarray:
    if limit is not None:
        _require_positive("--limit", limit)
    return load_binary_dataset(images, threshold)[:limit]


def _layout(args, resumed: LayerSpec | None = None) -> LayerSpec:
    """The layout from --layout/--intra.  Under --resume it is the
    checkpoint's, and each of the two flags that is given must agree with it."""
    if resumed is None:
        if not args.layout:
            raise UsageError("--layout is required unless resuming")
        return LayerSpec.from_strings(args.layout, args.intra or "")
    sizes, intra = resumed.to_strings()
    if args.layout is not None and LayerSpec.from_strings(args.layout).sizes != resumed.sizes:
        raise UsageError(f"--layout {args.layout} contradicts the checkpoint's layout {sizes}")
    if (args.intra is not None
            and LayerSpec.from_strings(sizes, args.intra).intra_layer != resumed.intra_layer):
        raise UsageError(f"--intra {args.intra} contradicts the checkpoint's intra {intra}")
    return resumed


def _epoch_rows_before(path: Path, start_epoch: int) -> list[str]:
    """The rows of an existing epochs.csv for epochs before `start_epoch`, so
    that a resumed run keeps its history.  Blank lines are skipped, a row
    that does not start with an epoch number is rejected, and a last row
    without a line end gets one so that the next row does not join it."""
    if start_epoch == 0 or not path.exists():
        return []
    with open(path, newline="", encoding="utf-8") as fh:
        lines = fh.readlines()
    kept = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        first = line.split(",", 1)[0]
        try:
            epoch = parse_number(first, int)
        except ValueError:
            raise UsageError(f"{path}:{lineno}: expected an epoch number, got {first!r}") from None
        if epoch < start_epoch:
            kept.append(line if line.endswith("\n") else line + "\r\n")
    return kept


def _restart_epoch_csv(path: Path, kept: list[str]) -> None:
    """Write the epochs.csv header followed by the `kept` rows through
    `checkpoint.replacing`, so that a failed write keeps the old file."""
    text = ",".join(training.EpochLog.csv_header()) + "\r\n" + "".join(kept)
    with ckpt_io.replacing(path) as fh:
        fh.write(text.encode("utf-8"))


def cmd_train(args) -> int:
    if args.checkpoint_every < 0:
        raise UsageError(f"--checkpoint-every must be non-negative, got {args.checkpoint_every}")
    if args.resume:
        state = ckpt_io.load_checkpoint(args.resume)
        _layout(args, state.layout)
        state.config = _build_config(args, state.config)
        if state.config.method == "pcd":
            raise UsageError("cannot resume a pcd run: its persistent chains are not checkpointed")
    else:
        layout = _layout(args)
        # Deeper machines default to more epochs; a config file or flag overrides.
        base = TrainConfig(epochs=200) if len(layout.sizes) > 2 else TrainConfig()
        state = training.init_state(layout, _build_config(args, base))
    layout, cfg = state.layout, state.config
    if cfg.epochs < state.epoch:
        raise UsageError(f"--epochs {cfg.epochs} is below the checkpoint's epoch {state.epoch}")
    if cfg.method != "vpf":
        training.require_rbm(layout)
        _reject_unread(args, {"threads": f"does not apply to method {cfg.method}"})
    ds = _load_dataset(args.images, args.threshold, args.limit)
    if ds.shape[1] != layout.sizes[0]:
        raise UsageError(f"data width {ds.shape[1]} does not match observed layer {layout.sizes[0]}")
    threads = _threads(args)

    out = Path(args.out)
    csv_path = out / "epochs.csv"
    kept_rows = _epoch_rows_before(csv_path, state.epoch)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "config.txt", "w", encoding="utf-8") as fh:
        sizes, intra = layout.to_strings()
        fh.write(f"# layout = {sizes}\n# intra = {intra}\n")
        fh.write(cfg.to_text())

    _restart_epoch_csv(csv_path, kept_rows)
    every = args.checkpoint_every

    def on_epoch(state, _pairs, log):
        with open(csv_path, "a", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerow(log.csv_row())
        if every and state.epoch % every == 0:
            ckpt_io.save_checkpoint(out / f"ckpt-epoch-{state.epoch:05d}.bin", state)
        print(f"epoch {log.epoch}: objective {log.objective_value:.6f} "
              f"rho {log.weight_sparsity:.4f} w2 {log.squared_weight:.4f} "
              f"[{log.wall_time_s:.1f}s]")

    if cfg.method == "vpf":
        training.train_vpf(ds, state, threads=threads, epoch_callback=on_epoch)
    else:
        training.train_cd(ds, state, epoch_callback=on_epoch)
    ckpt_io.save_checkpoint(out / "ckpt-final.bin", state)
    print(f"run complete: {out / 'ckpt-final.bin'}")
    return 0


def _confabulate(args, ck, tag: int, count: int, threads: int) -> np.ndarray:
    """Confabulations from checkpoint `ck` as set by the generate/eval-ll flags.

    `r` and `intra_sweeps` are the checkpoint's config under the --r and
    --intra-sweeps flags; the top layer starts uniform or from the
    mean-activation prior over `--data`, whose rows `--limit` caps.
    """
    m = ck.machine()
    cfg = _build_config(args, ck.config)
    if args.init == "prior":
        if not args.data:
            raise UsageError("--init prior needs --data with training images")
        ds = _load_dataset(args.data, args.threshold, args.limit)
        top_init = mean_activation_prior(m, ds, row_streams(args.seed, tag, 0, count=len(ds)),
                                         cfg.intra_sweeps, threads)
    else:
        top_init = np.full(m.layout.sizes[-1], 0.5)
    streams = row_streams(args.seed, tag, 1, count=count)
    return generate_batch(m, top_init, cfg.r, streams, cfg.intra_sweeps, threads)


def _reject_unread(args, unread: dict[str, str]) -> None:
    """Exit 2 on the first given flag in `unread`, which maps each flag that
    the chosen mode would not read to the reason."""
    for name, reason in unread.items():
        if name in getattr(args, "flags_given", ()):
            raise UsageError(f"--{name.replace('_', '-')} {reason}")


PRIOR_DATA = "applies only to the --data images of --init prior"


def _unread_sampling_flags(args) -> dict[str, str]:
    """The generate or eval-ll flags that the chosen mode would not read."""
    if getattr(args, "samples_from_data", False):
        names = ("limit", "checkpoint", "r", "intra_sweeps", "seed", "init", "threads")
        unread = dict.fromkeys(names, "does not apply to --samples-from-data")
    elif args.init != "prior":
        unread = {"limit": PRIOR_DATA, "data": "applies only to --init prior"}
    else:
        return {}
    # No --init prior --data is read: generate thresholds no images, and
    # eval-ll thresholds its test (and --samples-from-data) images unless --raw.
    if args.command == "generate":
        unread["threshold"] = PRIOR_DATA
    elif args.raw:
        unread["threshold"] = "does not apply: every image read is --raw"
    return unread


def cmd_generate(args) -> int:
    _reject_unread(args, _unread_sampling_flags(args))
    _require_positive("--count", args.count)
    threads = _threads(args)
    ck = ckpt_io.load_checkpoint(args.checkpoint)
    square_side(ck.layout.sizes[0])
    probs = _confabulate(args, ck, TAG_GENERATE, args.count, threads)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with ckpt_io.replacing(out / "probabilities.csv") as fh:
        write_csv(fh, probs)
    write_pgm(out / "confabulations.pgm", tile_images(probs))
    print(f"wrote {args.count} confabulations to {out}")
    return 0


def cmd_reconstruct(args) -> int:
    ck = ckpt_io.load_checkpoint(args.checkpoint)
    m = ck.machine()
    if len(m.layout.sizes) < 2:
        raise UsageError("reconstruction needs a machine with a hidden layer")
    _require_positive("--trials", args.trials)
    _require_positive("--gibbs-steps", args.gibbs_steps)
    threads = _threads(args)
    ds = _load_dataset(args.images, args.threshold, args.limit)
    for width, what in ((m.layout.sizes[0], "the checkpoint's visible layer"),
                        (metrics.IMAGE_SIDE**2, "the 28x28 images that reconstruction corrupts")):
        if ds.shape[1] != width:
            raise UsageError(f"images of width {ds.shape[1]} do not match {what} ({width})")
    patterns = list(metrics.PATTERNS) if args.pattern == "all" else [args.pattern]
    sweeps = _build_config(args, ck.config).intra_sweeps
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for pattern in patterns:
        total = 0.0
        for trial in range(args.trials):
            noise = row_streams(args.seed, TAG_RECON, trial, 0, count=len(ds))
            corrupted, known = metrics.corrupt(ds, pattern, noise)
            streams = row_streams(args.seed, TAG_RECON, trial, 1, count=len(ds))
            recon = metrics.reconstruct_batch(
                m, corrupted, known, args.gibbs_steps, streams, sweeps, threads)
            total += float(metrics.recon_error(ds, recon).mean())
            if trial == 0:
                head = min(10, len(ds))
                strip = np.concatenate(
                    [ds[:head], corrupted[:head], recon[:head]])
                write_pgm(out / f"triptych-{pattern}.pgm",
                          tile_images(strip, columns=head))
        mean_err = total / args.trials
        rows.append((pattern, mean_err))
        print(f"{pattern}: mean L1 error {mean_err:.2f} "
              f"({len(ds)} images, {args.trials} trials)")
    with open(out / "recon.csv", "w", encoding="utf-8") as fh:
        fh.write("pattern,mean_l1_error,images,trials,gibbs_steps\n")
        for pattern, err in rows:
            fh.write(f"{pattern},{err!r},{len(ds)},{args.trials},{args.gibbs_steps}\n")
    return 0


def _eval_images(args, path) -> np.ndarray:
    """Images for Parzen evaluation: thresholded bits, or [0, 1] pixels with --raw."""
    if args.raw:
        raw = load_idx(path)
        return raw.reshape(raw.shape[0], -1).astype(np.float64) / 255.0
    return _load_dataset(path, args.threshold, None)


def cmd_eval_ll(args) -> int:
    _reject_unread(args, _unread_sampling_flags(args))
    _require_positive("--n-samples", args.n_samples)
    threads = _threads(args)
    metrics.check_sigma(args.sigma, "--sigma")
    if args.limit_test is not None:
        _require_positive("--limit-test", args.limit_test)
    test = _eval_images(args, args.test_images)[: args.limit_test]
    if args.samples_from_data:
        if not args.data:
            raise UsageError("--samples-from-data needs --data")
        samples = _eval_images(args, args.data)[: args.n_samples]
    else:
        if not args.checkpoint:
            raise UsageError("--checkpoint required unless --samples-from-data")
        ck = ckpt_io.load_checkpoint(args.checkpoint)
        if ck.layout.sizes[0] != test.shape[1]:
            raise UsageError(f"test images of width {test.shape[1]} do not match "
                             f"the checkpoint's visible layer ({ck.layout.sizes[0]})")
        samples = _confabulate(args, ck, TAG_EVAL, args.n_samples, threads)
    mean, stderr = metrics.parzen_ll(samples, test, args.sigma)
    print(f"parzen_ll {mean:.4f} stderr {stderr:.4f} "
          f"(samples={len(samples)}, test={len(test)}, sigma={args.sigma})")
    return 0


def cmd_stdp_curve(args) -> int:
    if args.points < 2:
        raise UsageError("--points must be at least 2")
    dts = [dt for dt in np.linspace(args.dt_min, args.dt_max, args.points) if dt != 0.0]
    points = stdp.stdp_curve(args.delta_pre, args.delta_post, dts)
    stdp.emit_stdp_csv(points, args.out)
    print(f"wrote {len(points)} points to {args.out}")
    return 0


def cmd_inspect(args) -> int:
    """Print a checkpoint's metadata, stored blocks and validity verdict.

    The file is parsed without validation so that a structurally invalid
    checkpoint is still described; it then exits 2.
    """
    blob = Path(args.checkpoint).read_bytes()
    ck = ckpt_io.parse(blob)
    m = ck.machine()
    sizes, intra = ck.layout.to_strings()
    print(f"format_version: {ckpt_io.FORMAT_VERSION}")
    print(f"layout: {sizes}")
    print(f"intra: {intra or 'none'}")
    print(f"epoch: {ck.epoch}")
    print(f"adam_t: {ck.adam.t}")
    for a, b in active_blocks(ck.layout):
        w = m.block(a, b)
        print(f"block {a}-{b}: {w.shape[0]}x{w.shape[1]}, |w|_max {np.abs(w).max():.6f}")
    print(f"stored_weights: {ck.weights.size}")
    print(f"file_bytes: {len(blob)}")
    violations = ckpt_io.violations(ck)
    verdict = f"{len(violations)} violations, first {violations[:3]}" if violations else "ok"
    print(f"validate: {verdict}")
    for line in ck.config.to_text().strip().splitlines():
        print(f"config.{line}")
    if violations:
        print(f"error: {args.checkpoint} fails validation", file=sys.stderr)
        return 2
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flowbm",
        allow_abbrev=False,
        description="Training and evaluation for binary Boltzmann machines "
                    "driven by probability-flow gradients.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=text, allow_abbrev=False)
        p.register("action", None, _StoreOnce)
        # A type=int or type=float flag reads its value with parse_number.
        for kind in (int, float):
            p.register("type", kind, partial(parse_number, kind=kind))
        return p

    p = command("train", "train a machine and write a run directory")
    p.add_argument("--images", required=True)
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--limit", type=int, default=None, help="use only the first N images")
    p.add_argument("--layout", default=None, help='e.g. "784-196" or "784-196-196-64"')
    p.add_argument("--intra", default=None, help='one 0 or 1 per hidden layer, e.g. "1,1,1"')
    p.add_argument("--out", required=True, help="run directory")
    p.add_argument("--checkpoint-every", type=int, default=0)
    p.add_argument("--resume", default=None, help="checkpoint to continue from")
    p.add_argument("--config", type=str, default=None, help="key=value config file")
    _add_config_flags(p, CONFIG_FLAGS)
    _add_threads(p)
    p.set_defaults(func=cmd_train)

    p = command("generate", "sample confabulations from a checkpoint")
    p.description = ("Sample confabulations from a checkpoint. --out receives "
                     "probabilities.csv, one row per confabulation, each value %.8f, "
                     "comma-separated, newline-terminated, and their image grid "
                     "confabulations.pgm.")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--init", choices=("uniform", "prior"), default="uniform")
    p.add_argument("--data", default=None, help="training images for --init prior")
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--limit", type=int, default=None, help="--init prior: first N --data images")
    _add_config_flags(p, ("r", "intra_sweeps"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    _add_threads(p)
    p.set_defaults(func=cmd_generate)

    p = command("reconstruct", "evaluate corrupted-image reconstruction (a deep "
                "checkpoint reconstructs through its first hidden layer only)")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--images", required=True, help="test images (IDX)")
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--pattern", choices=metrics.PATTERNS + ("all",), default="all")
    p.add_argument("--gibbs-steps", type=int, default=2)
    p.add_argument("--trials", type=int, default=3)
    p.add_argument("--limit", type=int, default=None, help="use only the first N images")
    _add_config_flags(p, ("intra_sweeps",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    _add_threads(p)
    p.set_defaults(func=cmd_reconstruct)

    p = command("eval-ll", "Parzen-window log-likelihood of test data")
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--test-images", required=True)
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--n-samples", type=int, default=10000)
    p.add_argument("--sigma", type=float, default=0.2)
    p.add_argument("--init", choices=("uniform", "prior"), default="prior")
    p.add_argument("--data", default=None, help="training images for the prior / as samples")
    p.add_argument("--samples-from-data", action="store_true",
                   help="use --data images directly as Parzen samples")
    p.add_argument("--raw", action="store_true",
                   help="continuous [0,1] pixels, no threshold, for --test-images and "
                        "for --data under --samples-from-data")
    p.add_argument("--limit", type=int, default=None, help="--init prior: first N --data images")
    p.add_argument("--limit-test", type=int, default=None)
    _add_config_flags(p, ("r", "intra_sweeps"))
    p.add_argument("--seed", type=int, default=0)
    _add_threads(p)
    p.set_defaults(func=cmd_eval_ll)

    p = command("stdp-curve", "closed-form timing-plasticity curve CSV")
    p.add_argument("--delta-pre", type=float, required=True)
    p.add_argument("--delta-post", type=float, required=True)
    p.add_argument("--dt-min", type=float, required=True)
    p.add_argument("--dt-max", type=float, required=True)
    p.add_argument("--points", type=int, default=200)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_stdp_curve)

    p = command("inspect", "print checkpoint metadata")
    p.add_argument("--checkpoint", required=True)
    p.set_defaults(func=cmd_inspect)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, ValueError, OSError, ckpt_io.CheckpointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
