"""Command-line interface: train, generate, reconstruct, eval-ll,
stdp-curve, inspect.

Run directories use fixed file names (config.txt, epochs.csv,
ckpt-epoch-NNNNN.bin, ckpt-final.bin) so downstream tooling can locate
outputs.  TrainConfig values come from defaults, then an optional
key=value config file, then explicit CLI flags.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from . import checkpoint as ckpt_io
from . import metrics, stdp, training
from .data import Dataset, load_binary_dataset, load_idx
from .model import LayerSpec
from .optim import TrainConfig, load_config, parse_config_items
from .sampling import RngStream, generate_batch, mean_activation_prior
from .images import tile_images, write_pgm

TAG_GENERATE = 11
TAG_RECON = 12
TAG_EVAL = 13

CONFIG_FLAGS = (
    "eta", "beta1", "beta2", "adam_eps", "weight_decay", "minibatch",
    "epochs", "seed", "r", "intra_sweeps", "init_scale", "clamp_z",
)


class UsageError(Exception):
    pass


def _default_threads() -> int:
    return int(os.environ.get("FLOWBM_THREADS", "1"))


def _add_threads(p: argparse.ArgumentParser) -> None:
    p.add_argument("--threads", type=int, default=None,
                   help="worker threads (default: FLOWBM_THREADS or 1)")


def _threads(args) -> int:
    n = args.threads if args.threads is not None else _default_threads()
    if n < 1:
        raise UsageError(f"--threads must be at least 1, got {n}")
    return n


def _require_positive(flag: str, value: int) -> None:
    if value < 1:
        raise UsageError(f"{flag} must be at least 1, got {value}")


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", type=str, default=None, help="key=value config file")
    for name in CONFIG_FLAGS:
        flag = "--" + name.replace("_", "-")
        p.add_argument(flag, type=str, default=None)
    p.add_argument("--lambda", dest="weight_decay_alias", type=str, default=None,
                   help="alias for --weight-decay")


def _build_config(args, base: TrainConfig | None = None) -> TrainConfig:
    cfg = base or TrainConfig()
    if args.config:
        cfg = load_config(args.config, cfg)
    items = {}
    for name in CONFIG_FLAGS:
        value = getattr(args, name)
        if value is not None:
            items[name] = value
    if getattr(args, "weight_decay_alias", None) is not None:
        items["weight_decay"] = args.weight_decay_alias
    return parse_config_items(items, cfg)


def _load_dataset(images, labels, threshold: float, limit: int | None) -> Dataset:
    ds = load_binary_dataset(images, labels, threshold)
    if limit is not None:
        if limit < 1:
            raise UsageError(f"--limit must be at least 1, got {limit}")
        ds = ds.take(np.arange(min(limit, len(ds))))
    return ds


def _layout(args) -> LayerSpec:
    return LayerSpec.from_strings(args.layout, args.intra or "")


def _restart_epoch_csv(path: Path, start_epoch: int) -> None:
    """Write the epochs.csv header, keeping an existing file's rows for epochs
    before `start_epoch` so that a resumed run keeps its history."""
    kept = []
    if start_epoch > 0 and path.exists():
        with open(path, newline="", encoding="utf-8") as fh:
            kept = [row for row in fh.readlines()[1:] if int(row.split(",", 1)[0]) < start_epoch]
    training.write_epoch_csv(path, [], append=False)
    with open(path, "a", newline="", encoding="utf-8") as fh:
        fh.writelines(kept)


def cmd_train(args) -> int:
    method = args.method
    if method in ("cd", "pcd"):
        if args.k < 1:
            raise UsageError("--k must be at least 1")
    elif args.k != 1:
        raise UsageError("--k only applies to --method cd/pcd")
    if args.resume:
        resume = ckpt_io.load_checkpoint(args.resume)
        layout = resume.layout
        cfg = _build_config(args, resume.config)
        machine, adam, start_epoch = resume.machine(), resume.adam, resume.epoch
    else:
        if not args.layout:
            raise UsageError("--layout is required unless resuming")
        layout = _layout(args)
        # Deeper machines default to more epochs; a config file or flag overrides.
        cfg = _build_config(args, TrainConfig(epochs=200) if len(layout.sizes) > 2 else None)
        machine, adam = training.init_state(layout, cfg)
        start_epoch = 0
    if cfg.epochs < start_epoch:
        raise UsageError(f"--epochs {cfg.epochs} is below the checkpoint's epoch {start_epoch}")
    ds = _load_dataset(args.images, args.labels, args.threshold, args.limit)
    threads = _threads(args)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "config.txt", "w", encoding="utf-8") as fh:
        fh.write(f"# method = {method}\n# k = {args.k}\n")
        fh.write(f"# layout = {'-'.join(str(s) for s in layout.sizes)}\n")
        fh.write(f"# intra = {','.join('1' if f else '0' for f in layout.intra_layer)}\n")
        fh.write(cfg.to_text())

    csv_path = out / "epochs.csv"
    _restart_epoch_csv(csv_path, start_epoch)
    every = args.checkpoint_every

    def on_epoch(epoch, m, st, _pairs, log):
        training.write_epoch_csv(csv_path, [log], append=True)
        if every and (epoch + 1) % every == 0:
            ck = ckpt_io.from_training(m, st, cfg, epoch + 1)
            ckpt_io.save_checkpoint(out / f"ckpt-epoch-{epoch + 1:05d}.bin", ck)
        print(f"epoch {epoch}: objective {log.objective_value:.6f} "
              f"rho {log.weight_sparsity:.4f} w2 {log.squared_weight:.4f} "
              f"[{log.wall_time_s:.1f}s]")

    common = dict(machine=machine, adam=adam, start_epoch=start_epoch,
                  epoch_callback=on_epoch)
    if method == "vpf":
        m, _logs = training.train_vpf(ds, layout, cfg, threads=threads, **common)
    else:
        m, _logs = training.train_cd(ds, layout, args.k, method == "pcd", cfg, **common)
    final = ckpt_io.from_training(m, adam, cfg, cfg.epochs)
    ckpt_io.save_checkpoint(out / "ckpt-final.bin", final)
    print(f"run complete: {out / 'ckpt-final.bin'}")
    return 0


def _confabulate(args, tag: int, count: int, threads: int) -> np.ndarray:
    """Confabulations from `args.checkpoint` as set by the generate/eval-ll flags.

    `r` and `intra_sweeps` default to the checkpoint's training values; the
    top layer starts uniform or from the mean-activation prior over `--data`.
    """
    ck = ckpt_io.load_checkpoint(args.checkpoint)
    m = ck.machine()
    r = args.r if args.r is not None else ck.config.r
    sweeps = args.intra_sweeps if args.intra_sweeps is not None else ck.config.intra_sweeps
    if args.init == "prior":
        if not args.data:
            raise UsageError("--init prior needs --data with training images")
        ds = _load_dataset(args.data, None, args.threshold, args.limit)
        top_init = mean_activation_prior(m, ds, RngStream(args.seed, tag).child(0),
                                         sweeps, threads)
    else:
        top_init = "uniform"
    streams = [RngStream(args.seed, tag).child(1, i) for i in range(count)]
    return generate_batch(m, top_init, r, streams, sweeps, threads)


def cmd_generate(args) -> int:
    _require_positive("--count", args.count)
    probs = _confabulate(args, TAG_GENERATE, args.count, _threads(args))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    np.savetxt(out / "probabilities.csv", probs, delimiter=",", fmt="%.8f")
    write_pgm(out / "confabulations.pgm", tile_images(probs))
    print(f"wrote {args.count} confabulations to {out}")
    return 0


def cmd_reconstruct(args) -> int:
    ck = ckpt_io.load_checkpoint(args.checkpoint)
    m = ck.machine()
    if len(m.layout.sizes) < 2:
        raise UsageError("reconstruction needs a machine with a hidden layer")
    _require_positive("--trials", args.trials)
    threads = _threads(args)
    ds = _load_dataset(args.images, None, args.threshold, args.limit)
    patterns = list(metrics.PATTERNS) if args.pattern == "all" else [args.pattern]
    sweeps = args.intra_sweeps if args.intra_sweeps is not None else ck.config.intra_sweeps
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for pattern in patterns:
        total = 0.0
        for trial in range(args.trials):
            corrupted = np.empty_like(ds.images)
            known = np.empty(ds.images.shape, dtype=bool)
            base = RngStream(args.seed, TAG_RECON).child(trial)
            for i in range(len(ds)):
                corrupted[i], known[i] = metrics.corrupt(
                    ds.images[i], pattern, base.child(0, i))
            streams = [base.child(1, i) for i in range(len(ds))]
            recon = metrics.reconstruct_batch(
                m, corrupted, known, args.gibbs_steps, streams, sweeps, threads)
            total += float(np.abs(ds.images.astype(np.int64) - recon).sum(axis=1).mean())
            if trial == 0:
                head = min(10, len(ds))
                strip = np.concatenate(
                    [ds.images[:head], corrupted[:head], recon[:head]])
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
        raw, _ = load_idx(path)
        return raw.reshape(raw.shape[0], -1).astype(np.float64) / 255.0
    return _load_dataset(path, None, args.threshold, None).images


def cmd_eval_ll(args) -> int:
    _require_positive("--n-samples", args.n_samples)
    threads = _threads(args)
    test = _eval_images(args, args.test_images)
    if args.limit_test is not None:
        test = test[: args.limit_test]
    if args.samples_from_data:
        if not args.data:
            raise UsageError("--samples-from-data needs --data")
        samples = _eval_images(args, args.data)[: args.n_samples]
    else:
        if not args.checkpoint:
            raise UsageError("--checkpoint required unless --samples-from-data")
        samples = _confabulate(args, TAG_EVAL, args.n_samples, threads)
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
    ck = ckpt_io.load_checkpoint(args.checkpoint)
    print(f"format_version: {ck.format_version}")
    print(f"layout: {'-'.join(str(s) for s in ck.layout.sizes)}")
    print(f"intra: {','.join('1' if f else '0' for f in ck.layout.intra_layer) or 'none'}")
    print(f"epoch: {ck.epoch}")
    print(f"adam_t: {ck.adam.t}")
    print(f"weights: {ck.weights.shape}, |w|_max {np.abs(ck.weights).max():.6f}")
    for line in ck.config.to_text().strip().splitlines():
        print(f"config.{line}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flowbm",
        description="Training and evaluation for binary Boltzmann machines "
                    "driven by probability-flow gradients.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a machine and write a run directory")
    p.add_argument("--images", required=True)
    p.add_argument("--labels", default=None)
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--limit", type=int, default=None, help="use only the first N images")
    p.add_argument("--layout", default=None, help='e.g. "784-196" or "784-196-196-64"')
    p.add_argument("--intra", default=None, help='per-hidden-layer flags, e.g. "1,1,1"')
    p.add_argument("--method", choices=("vpf", "cd", "pcd"), default="vpf")
    p.add_argument("--k", type=int, default=1, help="Gibbs steps for cd/pcd")
    p.add_argument("--out", required=True, help="run directory")
    p.add_argument("--checkpoint-every", type=int, default=0)
    p.add_argument("--resume", default=None, help="checkpoint to continue from")
    _add_config_flags(p)
    _add_threads(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("generate", help="sample confabulations from a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--init", choices=("uniform", "prior"), default="uniform")
    p.add_argument("--data", default=None, help="training images for --init prior")
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--limit", type=int, default=None)
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--intra-sweeps", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    _add_threads(p)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("reconstruct", help="evaluate corrupted-image reconstruction")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--images", required=True, help="test images (IDX)")
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--pattern", choices=metrics.PATTERNS + ("all",), default="all")
    p.add_argument("--gibbs-steps", type=int, default=2)
    p.add_argument("--trials", type=int, default=3)
    p.add_argument("--limit", type=int, default=None)
    p.add_argument("--intra-sweeps", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    _add_threads(p)
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("eval-ll", help="Parzen-window log-likelihood of test data")
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
                   help="with --samples-from-data: continuous [0,1] pixels, no threshold")
    p.add_argument("--limit", type=int, default=None)
    p.add_argument("--limit-test", type=int, default=None)
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--intra-sweeps", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    _add_threads(p)
    p.set_defaults(func=cmd_eval_ll)

    p = sub.add_parser("stdp-curve", help="closed-form timing-plasticity curve CSV")
    p.add_argument("--delta-pre", type=float, required=True)
    p.add_argument("--delta-post", type=float, required=True)
    p.add_argument("--dt-min", type=float, required=True)
    p.add_argument("--dt-max", type=float, required=True)
    p.add_argument("--points", type=int, default=200)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_stdp_curve)

    p = sub.add_parser("inspect", help="print checkpoint metadata")
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
