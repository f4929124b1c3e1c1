import argparse
import builtins
import contextlib
import csv
import dataclasses
import errno
import hashlib
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import read_pgm, read_stdp_csv, write_idx_images, write_idx_labels
from flowbm import checkpoint as ckpt_io
from flowbm import cli, training
from flowbm.cli import build_parser, main
from flowbm.checkpoint import load_checkpoint
from flowbm.data import load_binary_dataset
from flowbm.images import write_csv
from flowbm.model import LayerSpec
from flowbm.optim import TrainConfig
from flowbm.sampling import e_step_batch, row_streams

SUBCOMMANDS = ("train", "generate", "reconstruct", "eval-ll", "stdp-curve", "inspect")
NO_INTRA = ("--intra-sweeps does not apply: "
            "no layer that this command updates has intra-layer edges")


@pytest.fixture
def workdir(tmp_path):
    rng = np.random.default_rng(7)
    # blobby synthetic digits: random low-frequency blobs thresholded later
    base = rng.random((160, 28, 28))
    for _ in range(2):
        base = (
            base
            + np.roll(base, 1, axis=1)
            + np.roll(base, -1, axis=1)
            + np.roll(base, 1, axis=2)
            + np.roll(base, -1, axis=2)
        ) / 5.0
    images = (base * 255).astype(np.uint8)
    write_idx_images(tmp_path / "train.idx", images[:120])
    write_idx_images(tmp_path / "test.idx", images[120:])
    write_idx_labels(tmp_path / "labels.idx", rng.integers(0, 10, 120).astype(np.uint8))
    return tmp_path


def run(args):
    return main([str(a) for a in args])


class TestHelpAndUsage:
    @pytest.mark.parametrize("cmd", SUBCOMMANDS)
    def test_help_exits_zero(self, cmd, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([cmd, "--help"])
        assert exc.value.code == 0
        assert "usage" in capsys.readouterr().out

    def test_top_level_help(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["--help"])
        assert exc.value.code == 0

    def test_unknown_subcommand_nonzero(self):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["transmogrify"])
        assert exc.value.code != 0

    def test_invalid_layout_no_files_written(self, workdir, capsys):
        out = workdir / "run-bad"
        code = run(
            ["train", "--images", workdir / "train.idx", "--layout", "784-abc",
             "--epochs", "1", "--out", out]
        )
        assert code != 0
        assert not out.exists()
        assert "error" in capsys.readouterr().err

    def test_missing_data_file_no_files_written(self, workdir, capsys):
        out = workdir / "run-missing"
        code = run(
            ["train", "--images", workdir / "nope.idx", "--layout", "784-8",
             "--epochs", "1", "--out", out]
        )
        assert code != 0
        assert not out.exists()

    def test_invalid_pattern_rejected(self, workdir):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(
                ["reconstruct", "--checkpoint", "x", "--images", "y",
                 "--pattern", "diagonal", "--out", "z"]
            )
        assert exc.value.code != 0

    def test_prior_init_requires_data(self, workdir, tmp_path, capsys):
        out = workdir / "run-a"
        assert run(["train", "--images", workdir / "train.idx", "--layout", "784-6",
                    "--epochs", "1", "--out", out]) == 0
        code = run(["generate", "--checkpoint", out / "ckpt-final.bin",
                    "--init", "prior", "--count", "2", "--out", workdir / "gen-bad"])
        assert code != 0
        assert not (workdir / "gen-bad").exists()

    @pytest.mark.parametrize("cmd", [
        ["generate", "--count", "0", "--out", "{w}/gen-zero"],
        ["reconstruct", "--images", "{w}/test.idx", "--trials", "0", "--out", "{w}/rec-zero"],
        ["reconstruct", "--images", "{w}/test.idx", "--gibbs-steps", "0", "--out", "{w}/rec-zero"],
        ["eval-ll", "--test-images", "{w}/test.idx", "--n-samples", "0", "--init", "uniform"],
    ])
    def test_nonpositive_counts_rejected(self, workdir, cmd, capsys):
        # The flag's parser type rejects the count, as it does a misspelled one.
        out = workdir / "run-c"
        assert run(["train", "--images", workdir / "train.idx", "--layout", "784-6",
                    "--epochs", "1", "--out", out]) == 0
        args = [cmd[0], "--checkpoint", out / "ckpt-final.bin"]
        args += [a.format(w=workdir) for a in cmd[1:]]
        with pytest.raises(SystemExit) as exc:
            run(args)
        assert exc.value.code == 2
        flag = cmd[cmd.index("0") - 1]
        assert f"argument {flag}: must be at least 1, got 0" in capsys.readouterr().err
        assert not (workdir / "gen-zero").exists()
        assert not (workdir / "rec-zero").exists()

    def test_unknown_intra_flags_rejected(self, workdir, capsys):
        # Tokens other than 0/1/true/false/yes/no used to run as "no intra
        # edges" with exit 0.
        base = ["train", "--images", workdir / "train.idx", "--layout", "784-6-4",
                "--epochs", "1"]
        for intra in ("on", "1,x"):
            out = workdir / "bad-intra"
            assert run(base + ["--intra", intra, "--out", out]) == 2
            assert "bad intra flag" in capsys.readouterr().err
            assert not out.exists()
        out = workdir / "good-intra"
        assert run(base + ["--intra", "0,1", "--out", out]) == 0
        assert "# intra = 0,1\n" in (out / "config.txt").read_text()

    @pytest.mark.parametrize("intra, message", [
        ("true", "bad intra flag 'true'"),
        ("no,yes", "bad intra flag 'no'"),
        ("1", "intra flags '1' do not match 2 hidden layers"),
    ])
    def test_intra_is_one_0_or_1_per_hidden_layer(self, workdir, intra, message, capsys):
        # true/yes/false/no used to be read as 1/0, and a single flag was
        # copied to every hidden layer.
        out = workdir / "intra"
        assert run(["train", "--images", workdir / "train.idx", "--layout", "784-6-4",
                    "--epochs", "1", "--intra", intra, "--out", out]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("cmd, flag", [
        (["train", "--images", "{w}/train.idx", "--layout", "784-6", "--epochs", "1",
          "--checkpoint-every", "-1", "--out", "{w}/bad"],
         "argument --checkpoint-every: must be at least 0, got -1"),
        (["eval-ll", "--test-images", "{w}/test.idx", "--samples-from-data",
          "--data", "{w}/train.idx", "--limit-test", "-50"],
         "argument --limit-test: must be at least 1, got -50"),
        (["eval-ll", "--test-images", "{w}/test.idx", "--samples-from-data",
          "--data", "{w}/train.idx", "--limit-test", "0"],
         "argument --limit-test: must be at least 1, got 0"),
        (["eval-ll", "--test-images", "{w}/test.idx", "--samples-from-data",
          "--data", "{w}/train.idx", "--sigma", "nan"], "--sigma"),
        (["eval-ll", "--test-images", "{w}/test.idx", "--samples-from-data",
          "--data", "{w}/train.idx", "--limit", "0"], "argument --limit: must be at least 1, got 0"),
        (["eval-ll", "--test-images", "{w}/test.idx", "--samples-from-data",
          "--data", "{w}/train.idx", "--limit", "-5"],
         "argument --limit: must be at least 1, got -5"),
        (["stdp-curve", "--delta-pre", "nan", "--delta-post", "1.0", "--dt-min", "-0.1",
          "--dt-max", "0.1", "--out", "{w}/bad"], "firing rates"),
        (["stdp-curve", "--delta-pre", "1.0", "--delta-post", "1.0", "--dt-min", "-0.1",
          "--dt-max", "0.1", "--points", "1", "--out", "{w}/bad"],
         "argument --points: must be at least 2, got 1"),
    ], ids=["checkpoint-every", "limit-test-negative", "limit-test-zero", "sigma-nan",
            "limit-from-data-zero", "limit-from-data-negative", "delta-pre-nan", "points-1"])
    def test_misread_numeric_flags_rejected(self, workdir, cmd, flag, capsys):
        # Each of these used to exit 0: writing every epoch, dropping test
        # rows, printing nan, or ignoring --limit.  A range of one flag is its
        # parser type's, so argparse exits 2 before the command runs.
        argv = [a.format(w=workdir) for a in cmd]
        if flag.startswith("argument "):
            with pytest.raises(SystemExit) as exc:
                run(argv)
            assert exc.value.code == 2
        else:
            assert run(argv) == 2
        captured = capsys.readouterr()
        assert flag in captured.err
        assert "parzen_ll" not in captured.out
        assert not (workdir / "bad").exists()

    @pytest.mark.parametrize("cmd, message", [
        (["train", "--images", "{w}/train.idx", "--out", "{w}/out"],
         "--layout is required unless resuming"),
        (["reconstruct", "--checkpoint", "{w}/observed.bin", "--images", "{w}/test.idx",
          "--out", "{w}/out"], "reconstruction needs a machine with a hidden layer"),
        (["eval-ll", "--test-images", "{w}/test.idx", "--samples-from-data"],
         "--samples-from-data needs --data"),
        (["eval-ll", "--test-images", "{w}/test.idx", "--init", "uniform"],
         "--checkpoint required unless --samples-from-data"),
    ], ids=["train-no-layout", "reconstruct-no-hidden-layer", "from-data-no-data",
            "eval-ll-no-checkpoint"])
    def test_missing_input_exits_2_before_writing(self, workdir, cmd, message, capsys):
        ckpt_io.save_checkpoint(workdir / "observed.bin",
                                training.init_state(LayerSpec((16,)), TrainConfig()))
        assert run([a.format(w=workdir) for a in cmd]) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""
        assert not (workdir / "out").exists()

    @pytest.mark.parametrize("cmd, message", [
        (["generate", "--init", "uniform", "--limit", "0", "--out", "{w}/gen"],
         "argument --limit: must be at least 1, got 0"),
        (["generate", "--init", "uniform", "--limit", "5", "--out", "{w}/gen"],
         "--limit applies only to the --data images of --init prior"),
        (["eval-ll", "--test-images", "{w}/test.idx", "--init", "uniform", "--limit", "5"],
         "--limit applies only to the --data images of --init prior"),
        (["eval-ll", "--test-images", "{w}/test.idx", "--samples-from-data",
          "--data", "{w}/train.idx", "--limit", "5"], "--limit does not apply"),
    ], ids=["generate-uniform-zero", "generate-uniform", "eval-ll-uniform", "eval-ll-from-data"])
    def test_limit_where_nothing_reads_it_exits_2(self, workdir, cmd, message, capsys):
        # Only the --init prior rows read --limit; elsewhere it was ignored with exit 0.
        out = workdir / "run-l"
        assert run(["train", "--images", workdir / "train.idx", "--layout", "784-6",
                    "--epochs", "1", "--out", out]) == 0
        capsys.readouterr()
        args = [cmd[0], "--checkpoint", out / "ckpt-final.bin"]
        args += [a.format(w=workdir) for a in cmd[1:]]
        if message.startswith("argument "):  # the parser type's range rule comes first
            with pytest.raises(SystemExit) as exc:
                run(args)
            assert exc.value.code == 2
        else:
            assert run(args) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert "parzen_ll" not in captured.out
        assert not (workdir / "gen").exists()

    @pytest.mark.parametrize("cmd", [
        ["generate", "--count", "2", "--out", "{w}/bad"],
        ["reconstruct", "--images", "{w}/test.idx", "--limit", "2", "--out", "{w}/bad"],
        ["eval-ll", "--test-images", "{w}/test.idx", "--n-samples", "2", "--init", "uniform"],
    ], ids=["generate", "reconstruct", "eval-ll"])
    def test_negative_intra_sweeps_rejected(self, workdir, cmd, capsys):
        # Each command used to run a negative count as 0 sweeps with exit 0.
        out = workdir / "run-s"
        assert run(["train", "--images", workdir / "train.idx", "--layout", "784-6",
                    "--intra", "1", "--epochs", "1", "--out", out]) == 0
        capsys.readouterr()
        args = [cmd[0], "--checkpoint", out / "ckpt-final.bin", "--intra-sweeps", "-1"]
        assert run(args + [a.format(w=workdir) for a in cmd[1:]]) == 2
        captured = capsys.readouterr()
        assert "intra_sweeps must be non-negative" in captured.err
        assert "parzen_ll" not in captured.out
        assert not (workdir / "bad").exists()


class TestEndToEnd:
    def test_full_pipeline(self, workdir):
        out = workdir / "run1"
        code = run(
            ["train", "--images", workdir / "train.idx", "--layout", "784-10", "--epochs", "2", "--minibatch", "30",
             "--seed", "5", "--checkpoint-every", "1", "--out", out]
        )
        assert code == 0
        assert (out / "config.txt").exists()
        assert (out / "ckpt-epoch-00001.bin").exists()
        csv_lines = (out / "epochs.csv").read_text().strip().splitlines()
        assert len(csv_lines) == 3  # header + 2 epochs

        gen = workdir / "gen1"
        assert run(["generate", "--checkpoint", out / "ckpt-final.bin", "--count", "8",
                    "--init", "uniform", "--seed", "3", "--out", gen]) == 0
        probs = np.loadtxt(gen / "probabilities.csv", delimiter=",")
        assert probs.shape == (8, 784)
        assert probs.min() >= 0.0 and probs.max() <= 1.0
        grid = read_pgm(gen / "confabulations.pgm")
        assert grid.ndim == 2

        rec = workdir / "rec1"
        assert run(["reconstruct", "--checkpoint", out / "ckpt-final.bin",
                    "--images", workdir / "test.idx", "--pattern", "all",
                    "--trials", "2", "--limit", "25", "--seed", "1", "--out", rec]) == 0
        lines = (rec / "recon.csv").read_text().strip().splitlines()
        assert len(lines) == 5  # header + 4 patterns
        assert (rec / "triptych-top.pgm").exists()

        assert run(["inspect", "--checkpoint", out / "ckpt-final.bin"]) == 0

    def test_eval_ll_smoke_mode_is_fast(self, workdir, capsys):
        out = workdir / "run2"
        assert run(["train", "--images", workdir / "train.idx", "--layout", "784-8",
                    "--epochs", "1", "--out", out]) == 0
        start = time.perf_counter()
        code = run(["eval-ll", "--checkpoint", out / "ckpt-final.bin",
                    "--test-images", workdir / "test.idx", "--n-samples", "100",
                    "--limit-test", "100", "--init", "uniform", "--r", "2"])
        elapsed = time.perf_counter() - start
        assert code == 0
        assert elapsed < 5.0
        assert "parzen_ll" in capsys.readouterr().out

    def test_eval_ll_samples_from_data(self, workdir, capsys):
        code = run(["eval-ll", "--test-images", workdir / "train.idx",
                    "--samples-from-data", "--data", workdir / "train.idx",
                    "--n-samples", "120", "--limit-test", "50"])
        assert code == 0
        # evaluating the training bits against themselves puts every test
        # point on a kernel center: ll ~ 541.35 - log(120)
        line = capsys.readouterr().out
        value = float(line.split()[1])
        assert value > 500.0

    def test_stdp_curve_command(self, workdir):
        path = workdir / "curve.csv"
        assert run(["stdp-curve", "--delta-pre", "1.0", "--delta-post", "1.0",
                    "--dt-min", "-0.1", "--dt-max", "0.1", "--points", "101",
                    "--out", path]) == 0
        points = read_stdp_csv(path)
        assert len(points) == 100  # dt = 0 excluded from an odd linspace
        assert all((p.dw > 0) == (p.dt > 0) for p in points)

    def test_config_file_with_cli_override(self, workdir):
        cfg_file = workdir / "base.cfg"
        cfg_file.write_text("eta = 0.002\nminibatch = 20\n")
        out = workdir / "run3"
        assert run(["train", "--images", workdir / "train.idx", "--layout", "784-6",
                    "--epochs", "1", "--config", cfg_file, "--eta", "0.004",
                    "--out", out]) == 0
        text = (out / "config.txt").read_text()
        assert "eta = 0.004" in text
        assert "minibatch = 20" in text

    def test_every_config_field_has_a_train_flag(self, workdir):
        values = {"eta": "0.002", "beta1": "0.8", "beta2": "0.99", "adam_eps": "1e-07",
                  "weight_decay": "0.0003", "minibatch": "25", "epochs": "1", "seed": "7",
                  "r": "3", "intra_sweeps": "2", "init_scale": "0.02", "clamp_z": "20.0",
                  "method": "cd", "k": "2"}
        assert set(values) == {f.name for f in dataclasses.fields(TrainConfig)}
        assert all(str(getattr(TrainConfig(), k)) != v for k, v in values.items())
        # intra_sweeps is read only where a layer has intra edges, which CD
        # cannot train, so it takes a second run.
        written = {}
        for intra, names in (("0", set(values) - {"intra_sweeps"}),
                             ("1", {"intra_sweeps", "epochs"})):
            flags = [a for k in names for a in ("--" + k.replace("_", "-"), values[k])]
            out = workdir / f"flags-{intra}"
            assert run(["train", "--images", workdir / "train.idx", "--layout", "784-6",
                        "--intra", intra, "--limit", "30", "--out", out]
                       + flags) == 0
            lines = (out / "config.txt").read_text().splitlines()
            config = dict(line.split(" = ") for line in lines if not line.startswith("#"))
            written.update((k, config[k]) for k in names)
        assert written == values

    def test_config_file_sets_epochs_of_deep_layout(self, workdir):
        cfg_file = workdir / "one.cfg"
        cfg_file.write_text("epochs = 1\n")
        out = workdir / "deep"
        assert run(["train", "--images", workdir / "train.idx", "--layout", "784-6-4",
                    "--config", cfg_file, "--out", out]) == 0
        assert load_checkpoint(out / "ckpt-final.bin").epoch == 1
        assert len((out / "epochs.csv").read_text().strip().splitlines()) == 2

    def test_threads_flag_and_env_do_not_change_results(self, workdir, monkeypatch):
        args = ["train", "--images", workdir / "train.idx", "--layout", "784-8",
                "--epochs", "2", "--seed", "9"]
        out1, out2, out3 = (workdir / f"thr{i}" for i in range(3))
        assert run(args + ["--out", out1, "--threads", "1"]) == 0
        assert run(args + ["--out", out2, "--threads", "3"]) == 0
        # FLOWBM_THREADS used to set the default; 0 made every command exit 2.
        monkeypatch.setenv("FLOWBM_THREADS", "0")
        assert run(args + ["--out", out3]) == 0
        ref = (out1 / "ckpt-final.bin").read_bytes()
        assert (out2 / "ckpt-final.bin").read_bytes() == ref
        assert (out3 / "ckpt-final.bin").read_bytes() == ref


# Every long flag of each subcommand, written out: a new flag is added here too.
FLAGS = {
    None: {"--help"},
    "train": {"--help", "--images", "--threshold", "--limit", "--layout", "--intra", "--out",
              "--checkpoint-every", "--resume", "--config", "--eta", "--beta1", "--beta2",
              "--adam-eps", "--weight-decay", "--minibatch", "--epochs", "--seed", "--r",
              "--intra-sweeps", "--init-scale", "--clamp-z", "--method", "--k", "--threads"},
    "generate": {"--help", "--checkpoint", "--count", "--init", "--data", "--threshold",
                 "--limit", "--r", "--intra-sweeps", "--seed", "--out", "--threads"},
    "reconstruct": {"--help", "--checkpoint", "--images", "--threshold", "--pattern",
                    "--gibbs-steps", "--trials", "--limit", "--intra-sweeps", "--seed", "--out",
                    "--threads"},
    "eval-ll": {"--help", "--checkpoint", "--test-images", "--threshold", "--n-samples",
                "--sigma", "--init", "--data", "--samples-from-data", "--raw", "--limit",
                "--limit-test", "--r", "--intra-sweeps", "--seed", "--threads"},
    "stdp-curve": {"--help", "--delta-pre", "--delta-post", "--dt-min", "--dt-max", "--points",
                   "--out"},
    "inspect": {"--help", "--checkpoint"},
}

# A valid command line for each parser, so that only the flag under test can fail.
REQUIRED = {
    None: ["inspect", "--checkpoint", "x"],
    "train": ["--images", "x", "--out", "y"],
    "generate": ["--checkpoint", "x", "--out", "y"],
    "reconstruct": ["--checkpoint", "x", "--images", "y", "--out", "z"],
    "eval-ll": ["--test-images", "x"],
    "stdp-curve": ["--delta-pre", "1", "--delta-post", "1", "--dt-min", "-1", "--dt-max", "1",
                   "--out", "x"],
    "inspect": ["--checkpoint", "x"],
}

# Every integer flag of each subcommand and its minimum, which its parser
# type checks (None: no minimum).
MINIMUMS = {
    None: {},
    "train": {"--limit": 1, "--checkpoint-every": 0, "--threads": 1},
    "generate": {"--count": 1, "--limit": 1, "--seed": 0, "--threads": 1},
    "reconstruct": {"--gibbs-steps": 1, "--trials": 1, "--limit": 1, "--seed": 0,
                    "--threads": 1},
    "eval-ll": {"--n-samples": 1, "--limit": 1, "--limit-test": 1, "--seed": 0,
                "--threads": 1},
    "stdp-curve": {"--points": 2},
    "inspect": {},
}


class TestOneSpelling:
    def test_each_command_has_exactly_the_listed_flags(self):
        parser = build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        parsers = {None: parser, **sub.choices}
        long_flags = lambda p: {s for a in p._actions for s in a.option_strings
                                if s.startswith("--")}
        assert {cmd: long_flags(p) for cmd, p in parsers.items()} == FLAGS

    @pytest.mark.parametrize("cmd", list(FLAGS), ids=lambda cmd: cmd or "top")
    def test_strict_prefix_of_a_flag_exits_2(self, cmd, capsys):
        # Prefixes used to be completed: `train --init 0.5` set init_scale.
        parser = build_parser()
        prefixes = {flag[:end] for flag in FLAGS[cmd] for end in range(3, len(flag))}
        for prefix in sorted(prefixes - FLAGS[cmd]):
            argv = [prefix] + REQUIRED[cmd] if cmd is None else [cmd, *REQUIRED[cmd], prefix, "1"]
            with pytest.raises(SystemExit) as exc:
                parser.parse_args(argv)
            assert exc.value.code == 2, prefix
            assert "unrecognized arguments: " + prefix in capsys.readouterr().err

    @pytest.mark.parametrize("cmd", list(FLAGS), ids=lambda cmd: cmd or "top")
    def test_each_integer_flag_rejects_a_value_below_its_minimum_while_parsing(self, cmd,
                                                                               capsys):
        # Each minimum used to be checked in the command body, or not at all
        # (--threads 0 reached the samplers), after argparse had read the int.
        parser = build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        actions = (sub.choices[cmd] if cmd else parser)._actions
        integer_flags = {a.option_strings[0] for a in actions
                         if getattr(a.type, "__name__", None) == "int"}
        assert integer_flags == set(MINIMUMS[cmd])
        required = REQUIRED[cmd] if cmd is None else [cmd, *REQUIRED[cmd]]
        for flag, minimum in MINIMUMS[cmd].items():
            dest = flag[2:].replace("-", "_")
            lowest = 0 if minimum is None else minimum
            assert getattr(parser.parse_args(required + [flag, str(lowest)]), dest) == lowest
            if minimum is None:
                continue
            with pytest.raises(SystemExit) as exc:
                parser.parse_args(required + [flag, str(minimum - 1)])
            assert exc.value.code == 2, flag
            assert (f"argument {flag}: must be at least {minimum}, got {minimum - 1}"
                    in capsys.readouterr().err)
            with pytest.raises(SystemExit):
                parser.parse_args(required + [flag, "abc"])
            assert f"argument {flag}: invalid int value: 'abc'" in capsys.readouterr().err

    @pytest.mark.parametrize("cmd, seed", [
        (["generate", "--checkpoint", "{ck}", "--count", "2", "--out", "{w}/out"], "-1"),
        (["generate", "--checkpoint", "{ck}", "--count", "2", "--out", "{w}/out"],
         str(2**64)),
        (["reconstruct", "--checkpoint", "{ck}", "--images", "{w}/test.idx", "--limit", "2",
          "--out", "{w}/out"], "-1"),
        (["eval-ll", "--checkpoint", "{ck}", "--test-images", "{w}/test.idx", "--init", "uniform",
          "--n-samples", "4"], str(2**64)),
        (["train", "--images", "{w}/train.idx", "--layout", "784-6", "--out", "{w}/out"], "-1"),
        (["train", "--images", "{w}/train.idx", "--layout", "784-6", "--out", "{w}/out"],
         str(2**64)),
        (["train", "--images", "{w}/train.idx", "--layout", "784-6", "--config", "{w}/s.cfg",
          "--out", "{w}/out"], None),
    ], ids=["generate-negative", "generate-2-64", "reconstruct-negative", "eval-ll-2-64",
            "train-negative", "train-2-64", "train-config-negative"])
    def test_a_seed_outside_0_to_2_64_minus_1_exits_2_before_writing(self, workdir, cmd, seed,
                                                                     capsys):
        # Seeds were taken modulo 2**64: generate --seed -1 and --seed
        # 18446744073709551615 wrote byte-identical probabilities.csv, and
        # train --seed -3 (or seed = -3 in a config file) exited 0.
        ck = workdir / "run-seeded" / "ckpt-final.bin"
        if "{ck}" in cmd:
            assert run(["train", "--images", workdir / "train.idx", "--layout", "784-6",
                        "--epochs", "1", "--out", ck.parent]) == 0
            capsys.readouterr()
        (workdir / "s.cfg").write_text("seed = -3\n", encoding="utf-8")
        argv = [a.format(w=workdir, ck=ck) for a in cmd] + ([] if seed is None else
                                                            ["--seed", seed])
        try:
            code = run(argv)
        except SystemExit as exc:
            code = exc.code
        assert code == 2
        captured = capsys.readouterr()
        value = "-3" if seed is None else seed
        if cmd[0] == "train":
            assert f"seed must lie in 0 to {2**64 - 1}, got {value}" in captured.err
        else:
            bound = "at least 0" if value.startswith("-") else f"at most {2**64 - 1}"
            assert f"argument --seed: must be {bound}, got {value}" in captured.err
        assert "parzen_ll" not in captured.out
        assert not (workdir / "out").exists()

    def test_the_largest_seed_runs_and_differs_from_seed_0(self, workdir):
        ck = workdir / "run-seeded" / "ckpt-final.bin"
        assert run(["train", "--images", workdir / "train.idx", "--layout", "784-6",
                    "--epochs", "1", "--seed", 2**64 - 1, "--out", ck.parent]) == 0
        assert load_checkpoint(ck).config.seed == 2**64 - 1
        for seed in (0, 2**64 - 1):
            assert run(["generate", "--checkpoint", ck, "--count", "3", "--seed", seed,
                        "--out", workdir / f"gen-{seed}"]) == 0
        assert ((workdir / "gen-0" / "probabilities.csv").read_bytes()
                != (workdir / f"gen-{2**64 - 1}" / "probabilities.csv").read_bytes())

    @pytest.mark.parametrize("flags", [
        ["--epoch", "1"], ["--lambda", "0.01"], ["--labels", "{w}/labels.idx"],
    ], ids=["prefix", "lambda", "labels"])
    def test_removed_spelling_exits_2_before_writing(self, workdir, flags, capsys):
        # Each of these used to run: --epoch as --epochs, --lambda as
        # --weight-decay, and --labels read a labels file only to drop it.
        out = workdir / "spelled"
        with pytest.raises(SystemExit) as exc:
            run(["train", "--images", workdir / "train.idx", "--layout", "784-6", "--out", out]
                + [a.format(w=workdir) for a in flags])
        assert exc.value.code == 2
        assert "unrecognized arguments: " + flags[0] in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("form", ["space", "equals"])
    @pytest.mark.parametrize("cmd, flag, values", [
        (["train", "--images", "{w}/train.idx", "--layout", "784-6", "--epochs", "1",
          "--out", "{w}/out"], "--eta", ("0.1", "0.002")),
        (["generate", "--checkpoint", "{ck}", "--count", "2", "--out", "{w}/out"],
         "--r", ("1", "2")),
        (["reconstruct", "--checkpoint", "{ck}", "--images", "{w}/test.idx", "--limit", "2",
          "--gibbs-steps", "1", "--out", "{w}/out"], "--trials", ("1", "2")),
        (["eval-ll", "--checkpoint", "{ck}", "--test-images", "{w}/test.idx", "--n-samples", "4",
          "--init", "uniform"], "--sigma", ("0.2", "0.3")),
        (["stdp-curve", "--delta-pre", "1", "--delta-post", "1", "--dt-min", "-1", "--dt-max", "1",
          "--out", "{w}/out"], "--points", ("5", "6")),
        (["inspect"], "--checkpoint", ("{ck}", "{ck}")),
    ], ids=["train", "generate", "reconstruct", "eval-ll", "stdp-curve", "inspect"])
    def test_flag_given_twice_exits_2_before_writing(self, workdir, cmd, flag, values, form,
                                                     capsys):
        # Each command used to run with the last value and exit 0.
        ck = workdir / "run-twice" / "ckpt-final.bin"
        assert run(["train", "--images", workdir / "train.idx", "--layout", "784-6",
                    "--epochs", "1", "--out", ck.parent]) == 0
        capsys.readouterr()
        argv = [a.format(w=workdir, ck=ck) for a in cmd]
        for value in values:
            value = value.format(ck=ck)
            argv += [f"{flag}={value}"] if form == "equals" else [flag, value]
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert f"argument {flag}: given more than once" in captured.err
        assert captured.out == ""
        assert not (workdir / "out").exists()

    @pytest.mark.parametrize("flag", ["--raw", "--samples-from-data"])
    def test_boolean_flag_given_twice_exits_2(self, workdir, flag, capsys):
        # Both used to run, the repeat ignored, and exit 0.
        argv = ["eval-ll", "--test-images", workdir / "test.idx", "--samples-from-data",
                "--data", workdir / "train.idx", "--raw", "--n-samples", "20", flag]
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert f"argument {flag}: given more than once" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("cmd, message", [
        (["generate", "--checkpoint", "{ck}", "--init", "uniform", "--data", "/nonexistent.idx",
          "--out", "{w}/out"], "--data applies only to --init prior"),
        (["eval-ll", "--checkpoint", "{ck}", "--test-images", "{w}/test.idx", "--init", "uniform",
          "--data", "/nonexistent.idx"], "--data applies only to --init prior"),
        (["eval-ll", "--test-images", "{w}/test.idx", "--samples-from-data", "--data",
          "{w}/train.idx", "--checkpoint", "/nonexistent.bin"],
         "--checkpoint does not apply to --samples-from-data"),
        (["eval-ll", "--test-images", "{w}/test.idx", "--samples-from-data", "--data",
          "{w}/train.idx", "--r", "3"], "--r does not apply to --samples-from-data"),
        (["eval-ll", "--test-images", "{w}/test.idx", "--samples-from-data", "--data",
          "{w}/train.idx", "--intra-sweeps", "4"],
         "--intra-sweeps does not apply to --samples-from-data"),
        (["generate", "--checkpoint", "{ck}", "--init", "uniform", "--threshold", "0.9",
          "--out", "{w}/out"], "--threshold applies only to the --data images of --init prior"),
        (["eval-ll", "--test-images", "{w}/test.idx", "--samples-from-data", "--data",
          "{w}/train.idx", "--seed", "3"], "--seed does not apply to --samples-from-data"),
        (["eval-ll", "--test-images", "{w}/test.idx", "--samples-from-data", "--data",
          "{w}/train.idx", "--init", "uniform"], "--init does not apply to --samples-from-data"),
        (["eval-ll", "--test-images", "{w}/test.idx", "--samples-from-data", "--data",
          "{w}/train.idx", "--init", "prior"], "--init does not apply to --samples-from-data"),
        (["eval-ll", "--test-images", "{w}/test.idx", "--samples-from-data", "--data",
          "{w}/train.idx", "--threads", "2"], "--threads does not apply to --samples-from-data"),
        (["eval-ll", "--test-images", "{w}/test.idx", "--samples-from-data", "--data",
          "{w}/train.idx", "--raw", "--threshold", "0.9"], "--threshold does not apply"),
        (["eval-ll", "--checkpoint", "{ck}", "--test-images", "{w}/test.idx", "--init",
          "uniform", "--raw", "--threshold", "0.9"], "--threshold does not apply"),
        (["train", "--images", "{w}/train.idx", "--layout", "784-6", "--method", "cd",
          "--threads", "2", "--out", "{w}/out"], "--threads does not apply to method cd"),
        (["train", "--images", "{w}/train.idx", "--layout", "784-6", "--method", "pcd",
          "--threads", "1", "--out", "{w}/out"], "--threads does not apply to method pcd"),
        (["generate", "--checkpoint", "{ck}", "--intra-sweeps", "5", "--out", "{w}/out"],
         NO_INTRA),
        (["reconstruct", "--checkpoint", "{ck}", "--images", "{w}/test.idx", "--intra-sweeps",
          "5", "--out", "{w}/out"], NO_INTRA),
        (["eval-ll", "--checkpoint", "{ck}", "--test-images", "{w}/test.idx", "--init",
          "uniform", "--intra-sweeps", "5"], NO_INTRA),
        (["train", "--images", "{w}/train.idx", "--layout", "784-8", "--intra-sweeps", "4",
          "--out", "{w}/out"], NO_INTRA),
        (["train", "--images", "{w}/train.idx", "--resume", "{ck}", "--init-scale", "0.5",
          "--epochs", "2", "--out", "{w}/out"], "--init-scale does not apply to --resume"),
        (["train", "--images", "{w}/train.idx", "--layout", "784", "--threads", "2",
          "--out", "{w}/out"], "--threads does not apply: a fully-observed layout has no E-step"),
    ], ids=["generate-uniform-data", "eval-ll-uniform-data", "from-data-checkpoint",
            "from-data-r", "from-data-intra-sweeps", "generate-uniform-threshold",
            "from-data-seed", "from-data-init-uniform", "from-data-init-prior",
            "from-data-threads", "from-data-raw-threshold", "uniform-raw-threshold",
            "train-cd-threads", "train-pcd-threads", "generate-intra-sweeps",
            "reconstruct-intra-sweeps", "eval-ll-intra-sweeps", "train-intra-sweeps",
            "resume-init-scale", "train-fully-observed-threads"])
    def test_flag_the_mode_does_not_read_exits_2(self, workdir, cmd, message, capsys):
        # Each of these used to be ignored with exit 0, like --limit was.  A
        # flag with a default counts as given only when it is on the command line.
        ck = workdir / "run-unread" / "ckpt-final.bin"
        assert run(["train", "--images", workdir / "train.idx", "--layout", "784-6",
                    "--epochs", "1", "--out", ck.parent]) == 0
        capsys.readouterr()
        assert run([a.format(w=workdir, ck=ck) for a in cmd]) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""
        assert not (workdir / "out").exists()

    def test_intra_sweeps_where_an_updated_layer_has_intra_edges(self, workdir, capsys):
        # Reconstruction updates the first hidden layer only; generation and
        # training update every hidden layer.
        train, test = workdir / "train.idx", workdir / "test.idx"
        for intra, reconstruct_code in (("0,1", 2), ("1,0", 0)):
            out = workdir / f"deep-{intra}"
            assert run(["train", "--images", train, "--layout", "784-6-4", "--intra", intra,
                        "--epochs", "1", "--intra-sweeps", "2", "--out", out]) == 0
            ck = out / "ckpt-final.bin"
            assert run(["train", "--images", train, "--resume", ck, "--epochs", "2",
                        "--intra-sweeps", "3", "--out", out]) == 0
            assert run(["generate", "--checkpoint", ck, "--count", "2", "--intra-sweeps", "2",
                        "--out", out / "gen"]) == 0
            assert run(["eval-ll", "--checkpoint", ck, "--test-images", test, "--init",
                        "uniform", "--n-samples", "4", "--intra-sweeps", "2"]) == 0
            capsys.readouterr()
            assert run(["reconstruct", "--checkpoint", ck, "--images", test, "--limit", "3",
                        "--trials", "1", "--intra-sweeps", "2", "--out", out / "rec"]
                       ) == reconstruct_code
            assert (NO_INTRA in capsys.readouterr().err) == (reconstruct_code == 2)
            assert (out / "rec").exists() == (reconstruct_code == 0)

    @pytest.mark.parametrize("flags, text, message", [
        (["--layout", "784-6"], "intra_sweeps = 4\n",
         "intra_sweeps does not apply: no layer that this command updates has intra-layer edges"),
        (["--resume", "{run}/ckpt-epoch-00001.bin"], "init_scale = 0.5\n",
         "init_scale does not apply to --resume: the checkpoint's weights are kept"),
    ], ids=["intra-sweeps", "resume-init-scale"])
    def test_config_file_key_that_the_run_does_not_read_exits_2(self, workdir, flags, text,
                                                                 message, capsys):
        # Both ran with exit 0; the resume wrote init_scale = 0.5 to its checkpoints.
        run_dir = workdir / "run-cfg"
        assert run(["train", "--images", workdir / "train.idx", "--layout", "784-6",
                    "--epochs", "2", "--checkpoint-every", "1", "--out", run_dir]) == 0
        before = {p.name: p.read_bytes() for p in run_dir.iterdir()}
        capsys.readouterr()
        cfg_file = workdir / "c.cfg"
        cfg_file.write_text(text)
        for out in (workdir / "out", run_dir):
            assert run(["train", "--images", workdir / "train.idx", "--config", cfg_file,
                        "--out", out] + [a.format(run=run_dir) for a in flags]) == 2
            captured = capsys.readouterr()
            assert f"{cfg_file}: {message}" in captured.err
            assert captured.out == ""
        assert not (workdir / "out").exists()
        assert {p.name: p.read_bytes() for p in run_dir.iterdir()} == before

    def test_a_runs_own_config_file_is_read_back_on_resume_and_on_a_new_run(self, workdir):
        # config.txt holds every key, intra_sweeps and init_scale too, at the
        # values that the run used.
        first = workdir / "own"
        assert run(["train", "--images", workdir / "train.idx", "--layout", "784-6",
                    "--epochs", "2", "--checkpoint-every", "1", "--seed", "4",
                    "--out", first]) == 0
        own = workdir / "own.cfg"
        own.write_bytes((first / "config.txt").read_bytes())
        resumed, again = workdir / "own-resumed", workdir / "own-again"
        assert run(["train", "--images", workdir / "train.idx", "--config", own,
                    "--resume", first / "ckpt-epoch-00001.bin", "--out", resumed]) == 0
        assert run(["train", "--images", workdir / "train.idx", "--config", own,
                    "--layout", "784-6", "--out", again]) == 0
        final = (first / "ckpt-final.bin").read_bytes()
        assert (resumed / "ckpt-final.bin").read_bytes() == final
        assert (again / "ckpt-final.bin").read_bytes() == final

    def test_flags_that_the_mode_reads_stay_accepted(self, workdir, capsys):
        ck = workdir / "run-read" / "ckpt-final.bin"
        train, test = workdir / "train.idx", workdir / "test.idx"
        assert run(["train", "--images", train, "--layout", "784-6", "--method", "cd",
                    "--epochs", "1", "--out", ck.parent]) == 0
        for argv in (
            ["generate", "--checkpoint", ck, "--init", "prior", "--data", train, "--limit", "5",
             "--threshold", "0.9", "--seed", "3", "--count", "2", "--out", workdir / "gen"],
            ["eval-ll", "--checkpoint", ck, "--test-images", test, "--raw", "--init", "prior",
             "--data", train, "--limit", "5", "--threshold", "0.9", "--n-samples", "4"],
            ["eval-ll", "--checkpoint", ck, "--test-images", test, "--init", "uniform",
             "--threshold", "0.9", "--seed", "2", "--n-samples", "4"],
            ["eval-ll", "--test-images", test, "--samples-from-data", "--data", train,
             "--threshold", "0.9"],
        ):
            assert run(argv) == 0

    @pytest.mark.parametrize("cmd, config", [
        (["train", "--images", "{w}/train.idx", "--layout", "784-+1_6", "--out", "{w}/out"], None),
        (["train", "--images", "{w}/train.idx", "--layout", "784-6", "--epochs", "0_1",
          "--out", "{w}/out"], None),
        (["train", "--images", "{w}/train.idx", "--layout", "784-6", "--seed", "1_0",
          "--out", "{w}/out"], None),
        (["train", "--images", "{w}/train.idx", "--layout", "784-6", "--eta", "0_001",
          "--out", "{w}/out"], None),
        (["train", "--images", "{w}/train.idx", "--layout", "784-6", "--config", "{w}/n.cfg",
          "--out", "{w}/out"], "epochs = \u0661\n"),
        (["generate", "--checkpoint", "{ck}", "--count", "\uff13", "--out", "{w}/out"], None),
        (["eval-ll", "--checkpoint", "{ck}", "--test-images", "{w}/test.idx", "--init", "uniform",
          "--n-samples", "4", "--sigma", "0_2"], None),
    ], ids=["layout", "epochs", "seed", "eta", "config-epochs", "count", "sigma"])
    def test_number_in_another_spelling_exits_2_before_writing(self, workdir, cmd, config,
                                                                capsys):
        # int() and float() read each of these, and each command exited 0:
        # train --layout 784-+1_6 --epochs 0_1 --seed 1_0 --eta 0_001 ran
        # 784-16 for 1 epoch with seed 10 and eta 1.0.
        ck = workdir / "run-spelled" / "ckpt-final.bin"
        if "{ck}" in cmd:
            assert run(["train", "--images", workdir / "train.idx", "--layout", "784-6",
                        "--epochs", "1", "--out", ck.parent]) == 0
            capsys.readouterr()
        if config is not None:
            (workdir / "n.cfg").write_text(config, encoding="utf-8")
        try:
            code = run([a.format(w=workdir, ck=ck) for a in cmd])
        except SystemExit as exc:
            code = exc.code
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "error" in captured.err
        assert not (workdir / "out").exists()

    @pytest.mark.parametrize("alias", ["lambda", "lr", "learning_rate"])
    def test_former_alias_in_config_file_exits_2_before_writing(self, workdir, alias, capsys):
        cfg_file = workdir / "alias.cfg"
        cfg_file.write_text(f"epochs = 1\n{alias} = 0.01\n")
        out = workdir / "aliased"
        assert run(["train", "--images", workdir / "train.idx", "--layout", "784-6",
                    "--config", cfg_file, "--out", out]) == 2
        assert f"unknown config key '{alias}'" in capsys.readouterr().err
        assert not out.exists()


class TestTrainFailures:
    def test_bad_config_value_exits_2_before_writing(self, workdir, capsys):
        cfg_file = workdir / "nan.cfg"
        cfg_file.write_text("clamp_z = nan\n")
        for extra in (["--config", cfg_file], ["--intra-sweeps", "-1"]):
            out = workdir / "bad-config"
            assert run(["train", "--images", workdir / "train.idx", "--layout", "784-8",
                        "--out", out] + extra) == 2
            assert "error" in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("name, text, flags, message", [
        ("repeat", "eta = 0.5\neta = 0.1\n", [], "repeat.cfg:2: 'eta' sets eta again"),
    ], ids=["repeat"])
    def test_config_key_given_twice_exits_2_before_writing(self, workdir, capsys, name, text,
                                                           flags, message):
        if text is not None:
            (workdir / f"{name}.cfg").write_text(text)
            flags = ["--config", workdir / f"{name}.cfg"]
        out = workdir / "twice"
        assert run(["train", "--images", workdir / "train.idx", "--layout", "784-8",
                    "--epochs", "1", "--out", out] + flags) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_empty_images_file_exits_2_before_writing(self, workdir, capsys):
        write_idx_images(workdir / "empty.idx", np.zeros((0, 28, 28), dtype=np.uint8))
        out = workdir / "empty-run"
        assert run(["train", "--images", workdir / "empty.idx", "--layout", "784-8",
                    "--out", out]) == 2
        assert "empty.idx: the file holds no images" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("damage", ["truncated", "corrupt"])
    def test_damaged_gzip_images_exit_2_before_writing(self, workdir, damage, capsys):
        # A half-length file raised EOFError and a corrupt one zlib.error:
        # both exited 1 with a traceback.
        path = workdir / "train.idx.gz"
        write_idx_images(path, np.zeros((20, 28, 28), dtype=np.uint8), gz=True)
        blob = bytearray(path.read_bytes())
        if damage == "truncated":
            del blob[len(blob) // 2 :]
        else:
            blob[10] ^= 0xFF  # the first byte of the deflate stream
        path.write_bytes(bytes(blob))
        out = workdir / "gz-run"
        assert run(["train", "--images", path, "--layout", "784-8", "--out", out]) == 2
        assert "truncated or corrupt gzip data" in capsys.readouterr().err
        assert not out.exists()

    def test_k_without_cd_or_pcd_exits_2(self, workdir, capsys):
        out = workdir / "vpf-k"
        assert run(["train", "--images", workdir / "train.idx", "--layout", "784-8",
                    "--k", "2", "--out", out]) == 2
        assert "k must be at least 1, and 1 for method vpf, got 2" in capsys.readouterr().err
        assert not out.exists()

    def test_cd_on_a_deep_or_intra_layout_exits_2_before_writing(self, workdir, capsys):
        # The one-hidden-layer check used to run after config.txt and
        # epochs.csv were written; a resume into the run directory lost rows.
        for flags in (["--layout", "784-20-10"], ["--layout", "784-20", "--intra", "1"]):
            out = workdir / "cd-deep"
            assert run(["train", "--images", workdir / "train.idx", "--method", "cd",
                        "--out", out] + flags) == 2
            assert "one-hidden-layer" in capsys.readouterr().err
            assert not out.exists()
        run_dir = workdir / "deep"
        assert run(["train", "--images", workdir / "train.idx", "--layout", "784-20-10",
                    "--epochs", "3", "--checkpoint-every", "1", "--out", run_dir]) == 0
        before = {p.name: p.read_bytes() for p in run_dir.iterdir()}
        capsys.readouterr()
        assert run(["train", "--images", workdir / "train.idx", "--resume",
                    run_dir / "ckpt-epoch-00001.bin", "--method", "cd", "--out", run_dir]) == 2
        assert "one-hidden-layer" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in run_dir.iterdir()} == before

    def test_divergence_exits_2_without_checkpoints(self, workdir, capsys):
        out = workdir / "diverged"
        with np.errstate(all="ignore"):
            code = run(["train", "--images", workdir / "train.idx", "--layout", "784-8",
                        "--epochs", "3", "--checkpoint-every", "1", "--init-scale", "1e4",
                        "--clamp-z", "1e300", "--out", out])
        assert code == 2
        assert "epoch 0" in capsys.readouterr().err
        # Epoch 0 would have written ckpt-epoch-00001.bin.
        assert sorted(p.name for p in out.glob("*.bin")) == []
        assert len((out / "epochs.csv").read_text().strip().splitlines()) == 1


@pytest.fixture
def small_images(tmp_path):
    """3x4 images, 12 pixels wide: neither square nor 28x28."""
    path = tmp_path / "small.idx"
    write_idx_images(path, np.random.default_rng(3).integers(0, 256, (20, 3, 4)))
    return path


def snapshot(directory):
    return {p.relative_to(directory): p.read_bytes() for p in directory.rglob("*") if p.is_file()}


class TestShapeChecks:
    def test_train_on_data_of_the_wrong_width_leaves_the_run_directory_as_it_was(
            self, workdir, small_images, capsys):
        # The check used to run after config.txt was rewritten and
        # epochs.csv lost the rows of epochs 2-3.
        r2 = workdir / "r2"
        assert run(["train", "--images", small_images, "--layout", "12-4", "--epochs", "4",
                    "--checkpoint-every", "1", "--out", r2]) == 0
        before = snapshot(workdir)
        capsys.readouterr()
        assert run(["train", "--images", workdir / "train.idx", "--resume",
                    r2 / "ckpt-epoch-00002.bin", "--epochs", "4", "--out", r2]) == 2
        assert "data width 784 does not match observed layer 12" in capsys.readouterr().err
        assert run(["train", "--images", workdir / "train.idx", "--layout", "12-4",
                    "--epochs", "1", "--out", workdir / "fresh"]) == 2
        assert snapshot(workdir) == before

    def test_generate_from_a_visible_layer_that_is_no_square_image_exits_2(
            self, workdir, small_images, capsys):
        # probabilities.csv used to be written before the image grid failed.
        run_dir = workdir / "small-run"
        assert run(["train", "--images", small_images, "--layout", "12-4", "--epochs", "1",
                    "--out", run_dir]) == 0
        capsys.readouterr()
        assert run(["generate", "--checkpoint", run_dir / "ckpt-final.bin", "--count", "2",
                    "--out", workdir / "gen"]) == 2
        assert "images of length 12 are not square" in capsys.readouterr().err
        assert not (workdir / "gen").exists()

    @pytest.mark.parametrize("layout, images, message", [
        ("784-6", "small", "do not match the checkpoint's visible layer (784)"),
        ("12-4", "small", "do not match the 28x28 images that reconstruction corrupts"),
        ("12-4", "digits", "do not match the checkpoint's visible layer (12)"),
    ], ids=["small-images-784-machine", "small-images-12-machine", "digits-12-machine"])
    def test_reconstruct_images_of_the_wrong_width_exit_2_before_writing(
            self, workdir, small_images, layout, images, message, capsys):
        # Each used to leave an empty --out directory behind.
        paths = {"small": small_images, "digits": workdir / "train.idx"}
        train_images = small_images if layout == "12-4" else workdir / "train.idx"
        run_dir = workdir / "rec-run"
        assert run(["train", "--images", train_images, "--layout", layout, "--epochs", "1",
                    "--out", run_dir]) == 0
        capsys.readouterr()
        assert run(["reconstruct", "--checkpoint", run_dir / "ckpt-final.bin",
                    "--images", paths[images], "--out", workdir / "rec"]) == 2
        err = capsys.readouterr().err
        assert not (workdir / "rec").exists()
        assert message in err


    def test_eval_ll_on_test_images_of_the_wrong_width_exits_2_before_sampling(
            self, workdir, small_images, monkeypatch, capsys):
        # All --n-samples confabulations used to be drawn before parzen_ll
        # found the widths apart.
        run_dir = workdir / "ll-run"
        assert run(["train", "--images", small_images, "--layout", "12-4", "--epochs", "1",
                    "--out", run_dir]) == 0
        capsys.readouterr()

        def refuse(*args, **kwargs):
            raise AssertionError("sampled before the width check")

        monkeypatch.setattr("flowbm.cli.generate_batch", refuse)
        assert run(["eval-ll", "--checkpoint", run_dir / "ckpt-final.bin", "--test-images",
                    workdir / "test.idx", "--init", "uniform", "--n-samples", "3000"]) == 2
        assert ("test images of width 784 do not match the checkpoint's visible layer (12)"
                in capsys.readouterr().err)

    def test_images_with_no_pixels_exit_2(self, workdir, capsys):
        # eval-ll used to print parzen_ll 0.0000 and exit 0.
        path = workdir / "no-pixels.idx"
        write_idx_images(path, np.zeros((3, 0, 0), dtype=np.uint8))
        assert run(["eval-ll", "--test-images", path, "--samples-from-data",
                    "--data", path]) == 2
        captured = capsys.readouterr()
        assert "no-pixels.idx: its images of 0x0 hold no pixels" in captured.err
        assert captured.out == ""


@pytest.fixture
def random_images(tmp_path):
    """20 random 28x28 byte images: as --raw pixels no two lie close."""
    path = tmp_path / "random.idx"
    write_idx_images(path, np.random.default_rng(0).integers(0, 256, (20, 28, 28)))
    return path


class TestParzenRange:
    @pytest.mark.parametrize("sigma, raw, message", [
        ("1e-300", False, "--sigma must be positive with sigma**2 and 2*pi*sigma**2 normal"),
        ("1e-160", True, "--sigma must be positive with sigma**2 and 2*pi*sigma**2 normal"),
        ("1e-160", False, "--sigma must be positive with sigma**2 and 2*pi*sigma**2 normal"),
        ("1e200", False, "--sigma must be positive with sigma**2 and 2*pi*sigma**2 normal"),
        ("1e-150", True, "(stderr inf) at sigma 1e-150 is not finite"),
    ], ids=["nan-estimate", "raw-infinite-stderr", "subnormal-variance", "overflow",
            "raw-variance-overflow"])
    def test_sigma_outside_the_double_range_exits_2(self, random_images, sigma, raw, message,
                                                    capsys):
        # These printed nan; -2.27e305 with stderr inf; 288112.8400 where the
        # exact value is 288112.8305; an OverflowError traceback with exit 1;
        # and -2.27e286 with stderr inf.
        argv = ["eval-ll", "--test-images", random_images, "--samples-from-data",
                "--data", random_images, "--sigma", sigma]
        assert run(argv + (["--raw"] if raw else [])) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""

    def test_sigma_is_checked_before_sampling(self, workdir, monkeypatch, capsys):
        run_dir = workdir / "sigma-run"
        assert run(["train", "--images", workdir / "train.idx", "--layout", "784-6",
                    "--epochs", "1", "--out", run_dir]) == 0
        capsys.readouterr()

        def refuse(*args, **kwargs):
            raise AssertionError("sampled before the sigma check")

        monkeypatch.setattr("flowbm.cli.generate_batch", refuse)
        assert run(["eval-ll", "--checkpoint", run_dir / "ckpt-final.bin", "--test-images",
                    workdir / "test.idx", "--init", "uniform", "--sigma", "1e200"]) == 2
        assert "--sigma must be positive" in capsys.readouterr().err


class TestInitPrior:
    """--init prior starts generation from the top layer's mean state over
    the E-step rows of the first --limit --data images."""

    @staticmethod
    def prior_of(argv, monkeypatch) -> np.ndarray:
        """The top-layer probabilities that `argv` hands to generation."""
        seen, original = [], cli.generate_batch

        def record(m, top_init, *args):
            seen.append(top_init)
            return original(m, top_init, *args)

        monkeypatch.setattr("flowbm.cli.generate_batch", record)
        assert run(argv) == 0
        return seen[0]

    @staticmethod
    def save(workdir, biases_of_top=None):
        state = training.init_state(LayerSpec((784, 10, 6), (False, True)),
                                    TrainConfig(seed=4, init_scale=0.3))
        if biases_of_top is not None:
            state.biases[-6:] = biases_of_top
        ckpt_io.save_checkpoint(workdir / "prior.bin", state)
        return state

    def test_prior_is_the_mean_top_state_of_the_e_step(self, workdir, monkeypatch):
        m = self.save(workdir).machine()
        prior = self.prior_of(["generate", "--checkpoint", workdir / "prior.bin", "--init",
                               "prior", "--data", workdir / "train.idx", "--limit", "40",
                               "--seed", "3", "--count", "2", "--out", workdir / "gen"],
                              monkeypatch)
        data = load_binary_dataset(workdir / "train.idx")[:40]
        rows = e_step_batch(m, data, row_streams(3, cli.TAG_GENERATE, 0, count=40))
        np.testing.assert_array_equal(prior, rows[:, m.layout.slices[-1]].mean(axis=0))
        assert prior.shape == (6,) and 0.0 < prior.min() and prior.max() < 1.0

    def test_saturated_top_biases_give_a_saturated_prior(self, workdir, monkeypatch):
        self.save(workdir, biases_of_top=[40.0, -40.0] * 3)
        prior = self.prior_of(["eval-ll", "--checkpoint", workdir / "prior.bin",
                               "--test-images", workdir / "test.idx", "--init", "prior",
                               "--data", workdir / "train.idx", "--limit", "7",
                               "--n-samples", "4"], monkeypatch)
        np.testing.assert_array_equal(prior, [1.0, 0.0] * 3)


class TestProbabilitiesCsv:
    """generate's probabilities.csv: one row per confabulation, each value
    `%.8f`, comma-separated, `\\n`-terminated."""

    COUNT = 600  # two 512-row shards at --threads 2

    @pytest.fixture
    def checkpoint(self, workdir):
        out = workdir / "csv-run"
        assert run(["train", "--images", workdir / "train.idx", "--layout", "784-10-6",
                    "--intra", "0,1", "--epochs", "2", "--seed", "5", "--out", out]) == 0
        return out / "ckpt-final.bin"

    @pytest.mark.parametrize("threads", [1, 2])
    def test_pinned_bytes(self, workdir, checkpoint, threads):
        # Recorded while np.savetxt(fmt="%.8f", delimiter=",") wrote the file.
        gen = workdir / "gen"
        assert run(["generate", "--checkpoint", checkpoint, "--count", self.COUNT, "--seed", "3",
                    "--threads", threads, "--out", gen]) == 0
        blob = (gen / "probabilities.csv").read_bytes()
        assert blob.count(b"\n") == self.COUNT and blob.endswith(b"\n")
        assert hashlib.sha256(blob).hexdigest() == (
            "9022eab70cd0ab76dc30aa967afc8a0a648a90defab060e0f6de8b49cb9f2973")

    def test_write_failing_partway_leaves_no_csv(self, workdir, checkpoint, monkeypatch,
                                                 capsys):
        # A failed write used to leave a truncated CSV that loads as fewer rows.
        class DiskFullAfterOneWrite:
            def __init__(self, fh):
                self.fh, self.writes = fh, 0

            def write(self, data):
                if self.writes:
                    raise OSError(errno.ENOSPC, "No space left on device")
                self.writes += 1
                return self.fh.write(data)

        monkeypatch.setattr("flowbm.cli.write_csv",
                            lambda fh, values: write_csv(DiskFullAfterOneWrite(fh), values))
        gen = workdir / "gen"
        assert run(["generate", "--checkpoint", checkpoint, "--count", self.COUNT,
                    "--out", gen]) == 2
        assert "No space left on device" in capsys.readouterr().err
        assert list(gen.iterdir()) == []


class TestInspect:
    def test_describes_the_block_store(self, workdir, capsys):
        out = workdir / "insp"
        assert run(["train", "--images", workdir / "train.idx", "--layout", "784-6-4",
                    "--intra", "0,1", "--epochs", "1", "--out", out]) == 0
        path = out / "ckpt-final.bin"
        ck = load_checkpoint(path)
        capsys.readouterr()
        assert run(["inspect", "--checkpoint", path]) == 0
        printed = capsys.readouterr().out.splitlines()
        lines = dict(line.split(": ", 1) for line in printed if ": " in line)
        assert lines["format_version"] == "3"
        assert lines["block 0-1"].startswith("784x6, |w|_max ")
        assert lines["block 1-2"].startswith("6x4, |w|_max ")
        assert lines["block 2-2"].startswith("4x4, |w|_max ")
        w_max = float(lines["block 0-1"].rsplit(" ", 1)[1])
        assert w_max == pytest.approx(np.abs(ck.machine().block(0, 1)).max(), abs=1e-6)
        assert "block 1-1" not in lines
        assert int(lines["stored_weights"]) == 784 * 6 + 6 * 4 + 4 * 4 == ck.weights.size
        assert int(lines["file_bytes"]) == os.path.getsize(path)
        assert lines["validate"] == "ok"


class TestResume:
    def test_resume_matches_uninterrupted_run(self, workdir):
        base = ["train", "--images", workdir / "train.idx", "--layout", "784-8",
                "--seed", "21", "--minibatch", "30"]
        full = workdir / "full"
        assert run(base + ["--epochs", "4", "--out", full]) == 0

        half = workdir / "half"
        assert run(base + ["--epochs", "2", "--out", half]) == 0
        resumed = workdir / "resumed"
        assert run(["train", "--images", workdir / "train.idx",
                    "--resume", half / "ckpt-final.bin", "--epochs", "4",
                    "--out", resumed]) == 0

        assert (resumed / "ckpt-final.bin").read_bytes() == (full / "ckpt-final.bin").read_bytes()

    def test_resume_into_same_directory_keeps_epoch_log(self, workdir):
        base = ["train", "--images", workdir / "train.idx", "--layout", "784-8", "--seed", "4"]
        full, run_dir = workdir / "log-full", workdir / "log-run"
        assert run(base + ["--epochs", "3", "--out", full]) == 0
        assert run(base + ["--epochs", "3", "--checkpoint-every", "1", "--out", run_dir]) == 0
        assert run(["train", "--images", workdir / "train.idx", "--resume",
                    run_dir / "ckpt-epoch-00001.bin", "--epochs", "3", "--out", run_dir]) == 0
        epochs = lambda d: [line.split(",")[:2]
                            for line in (d / "epochs.csv").read_text().splitlines()]
        assert epochs(run_dir) == epochs(full)

    @pytest.mark.parametrize("edit", [
        lambda text: text + "\n",
        lambda text: text.rstrip("\r\n"),
    ], ids=["blank-last-line", "no-final-line-end"])
    def test_resume_keeps_history_of_edited_epoch_log(self, workdir, edit):
        # A trailing blank line used to stop the resume with exit 2 after
        # config.txt had been rewritten; a last row without a line end was
        # joined with the first new row.
        base = ["train", "--images", workdir / "train.idx", "--layout", "784-8", "--seed", "4"]
        run_dir = workdir / "edited"
        assert run(base + ["--epochs", "2", "--checkpoint-every", "1", "--out", run_dir]) == 0
        log = run_dir / "epochs.csv"
        old_rows = log.read_text().splitlines()[1:]
        log.write_bytes(edit(log.read_bytes().decode()).encode())
        assert run(["train", "--images", workdir / "train.idx", "--resume",
                    run_dir / "ckpt-epoch-00002.bin", "--epochs", "3", "--eta", "0.01",
                    "--out", run_dir]) == 0
        rows = log.read_text().splitlines()[1:]
        assert rows[:2] == old_rows
        assert [row.split(",")[0] for row in rows] == ["0", "1", "2"]
        assert len(rows[2].split(",")) == 5

    def test_failed_rewrite_of_epoch_log_keeps_the_old_file(self, workdir, monkeypatch,
                                                              capsys):
        # The rewrite used to truncate epochs.csv first: a full disk left
        # only part of the run's history.
        base = ["train", "--images", workdir / "train.idx", "--layout", "784-8", "--seed", "4"]
        run_dir = workdir / "disk-full"
        assert run(base + ["--epochs", "3", "--checkpoint-every", "1", "--out", run_dir]) == 0
        log = run_dir / "epochs.csv"
        before = log.read_bytes()
        replacing = ckpt_io.replacing

        class DiskFullMidway:
            def __init__(self, fh):
                self.fh = fh

            def write(self, data):
                self.fh.write(data[: len(data) // 2])
                raise OSError(errno.ENOSPC, "No space left on device")

        @contextlib.contextmanager
        def failing(path):
            with replacing(path) as fh:
                yield DiskFullMidway(fh)

        monkeypatch.setattr(ckpt_io, "replacing", failing)
        assert run(["train", "--images", workdir / "train.idx", "--resume",
                    run_dir / "ckpt-epoch-00001.bin", "--epochs", "3", "--out", run_dir]) == 2
        assert "No space left on device" in capsys.readouterr().err
        assert log.read_bytes() == before
        assert not (run_dir / ".epochs.csv.tmp").exists()

    @pytest.mark.parametrize("failing_write", [3, 4])
    def test_disk_full_during_a_run_keeps_whole_rows_and_resumes(self, workdir, monkeypatch,
                                                                  capsys, failing_write):
        # Each epoch's row used to be appended in place: a disk that filled
        # halfway through the append left a torn last row.  Write 1 is the
        # start of the run, write k + 2 follows epoch k.
        base = ["train", "--images", workdir / "train.idx", "--layout", "784-8", "--seed", "4",
                "--epochs", "3"]
        full, run_dir = workdir / "whole", workdir / "torn"
        assert run(base + ["--out", full]) == 0
        real_open, opened = builtins.open, []

        class DiskFullMidway:
            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                self.fh.write(data[: len(data) // 2])
                raise OSError(errno.ENOSPC, "No space left on device")

        def open_filling_up(file, mode="r", *args, **kwargs):
            fh = real_open(file, mode, *args, **kwargs)
            name = os.path.basename(file)
            if name in ("epochs.csv", ".epochs.csv.tmp") and set(mode) & set("wa"):
                opened.append(file)
                if len(opened) == failing_write:
                    return DiskFullMidway(fh)
            return fh

        monkeypatch.setattr(builtins, "open", open_filling_up)
        assert run(base + ["--checkpoint-every", "1", "--out", run_dir]) == 2
        monkeypatch.undo()
        assert "No space left on device" in capsys.readouterr().err
        log = run_dir / "epochs.csv"
        header, *rows, last = log.read_bytes().split(b"\r\n")
        assert header == cli.EPOCH_HEADER.encode() and last == b""
        assert [row.split(b",")[0] for row in rows] == [b"%d" % e for e in range(failing_write - 2)]
        assert all(len(row.split(b",")) == 5 for row in rows)
        assert not (run_dir / ".epochs.csv.tmp").exists()
        kept = log.read_bytes()
        newest = sorted(run_dir.glob("ckpt-epoch-*.bin"))[-1]
        assert load_checkpoint(newest).epoch == failing_write - 2
        assert run(["train", "--images", workdir / "train.idx", "--resume", newest,
                    "--epochs", "3", "--out", run_dir]) == 0
        assert log.read_bytes().startswith(kept)
        columns = lambda d: [line.split(",")[:4]  # all but wall_time_s
                             for line in (d / "epochs.csv").read_text().splitlines()]
        assert columns(run_dir) == columns(full)
        assert (run_dir / "ckpt-final.bin").read_bytes() == (full / "ckpt-final.bin").read_bytes()

    def test_resume_rejects_malformed_epoch_log_before_writing(self, workdir, capsys):
        base = ["train", "--images", workdir / "train.idx", "--layout", "784-8", "--seed", "4"]
        run_dir = workdir / "malformed"
        assert run(base + ["--epochs", "2", "--checkpoint-every", "1", "--out", run_dir]) == 0
        log = run_dir / "epochs.csv"
        log.write_text(log.read_text() + "x,1.0,0.5,0.1,0.0\n")
        before = {p.name: p.read_bytes() for p in run_dir.iterdir()}
        capsys.readouterr()
        assert run(["train", "--images", workdir / "train.idx", "--resume",
                    run_dir / "ckpt-epoch-00001.bin", "--epochs", "3", "--eta", "0.01",
                    "--out", run_dir]) == 2
        assert f"{log}:4:" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in run_dir.iterdir()} == before

    @pytest.mark.parametrize("edit, location", [
        (lambda lines: lines[1:], ":1: expected the header"),
        (lambda lines: ["epoch,foo"] + lines[1:] + ["0,1"], ":1: expected the header"),
        (lambda lines: lines + ["0,1"], ":4: expected 5 fields, got 2"),
    ], ids=["header-deleted", "other-header", "short-row"])
    def test_resume_rejects_an_epoch_log_it_cannot_read_before_writing(
            self, workdir, capsys, edit, location):
        # The first line was dropped unread and only each row's first field
        # was read: without its header the log lost epoch 0's row, and a
        # two-column row was kept, all with exit 0.
        base = ["train", "--images", workdir / "train.idx", "--layout", "784-8", "--seed", "4"]
        run_dir = workdir / "unreadable-log"
        assert run(base + ["--epochs", "2", "--checkpoint-every", "1", "--out", run_dir]) == 0
        log = run_dir / "epochs.csv"
        log.write_text("\r\n".join(edit(log.read_text().splitlines())) + "\r\n")
        before = {p.name: p.read_bytes() for p in run_dir.iterdir()}
        capsys.readouterr()
        assert run(["train", "--images", workdir / "train.idx", "--resume",
                    run_dir / "ckpt-epoch-00002.bin", "--epochs", "3", "--out", run_dir]) == 2
        assert f"{log}{location}" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in run_dir.iterdir()} == before

    def test_resume_rejects_an_epoch_number_in_another_spelling(self, workdir, capsys):
        # int() read the epoch "+1_0" as 10, and the row was dropped as an
        # epoch after the checkpoint's.
        base = ["train", "--images", workdir / "train.idx", "--layout", "784-8", "--seed", "4"]
        run_dir = workdir / "spelled-log"
        assert run(base + ["--epochs", "2", "--checkpoint-every", "1", "--out", run_dir]) == 0
        log = run_dir / "epochs.csv"
        log.write_text(log.read_text() + "+1_0,1.0,0.5,0.1,0.0\n")
        capsys.readouterr()
        assert run(["train", "--images", workdir / "train.idx", "--resume",
                    run_dir / "ckpt-epoch-00001.bin", "--epochs", "3", "--out", run_dir]) == 2
        assert f"{log}:4: expected an epoch number, got '+1_0'" in capsys.readouterr().err

    @pytest.mark.parametrize("epochs, edit, message", [
        (2, lambda rows: rows + ["0,1.0,0.5,0.1,0.0"], ":4: expected epoch 2, got 0"),
        (3, lambda rows: rows[:1] + rows[2:], ":3: expected epoch 1, got 2"),
        (3, lambda rows: rows[:2], ": the rows end at epoch 1, expected 2"),
        (2, lambda rows: ["-1,1.0,0.5,0.1,0.0"] + rows, ":2: expected a non-negative epoch, got -1"),
    ], ids=["repeated-epoch", "gap", "ends-early", "negative-epoch"])
    def test_resume_rejects_epochs_out_of_order_before_writing(self, workdir, capsys, epochs,
                                                               edit, message):
        # A row whose epoch repeated or ran backwards was kept: appending
        # epoch 0 to a 2-epoch run's log and resuming from epoch 2 left the
        # epochs 0, 1, 0, 2 with exit 0.
        base = ["train", "--images", workdir / "train.idx", "--layout", "784-8", "--seed", "4"]
        run_dir = workdir / "ordered-log"
        assert run(base + ["--epochs", str(epochs), "--checkpoint-every", "1",
                           "--out", run_dir]) == 0
        log = run_dir / "epochs.csv"
        header, *rows = log.read_text().splitlines()
        log.write_text("\r\n".join([header] + edit(rows)) + "\r\n")
        before = {p.name: p.read_bytes() for p in run_dir.iterdir()}
        capsys.readouterr()
        assert run(["train", "--images", workdir / "train.idx", "--resume",
                    run_dir / f"ckpt-epoch-{epochs:05d}.bin", "--epochs", str(epochs + 1),
                    "--out", run_dir]) == 2
        assert f"{log}{message}" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in run_dir.iterdir()} == before

    def test_resume_keeps_a_log_that_starts_above_epoch_0(self, workdir):
        # The run directory's first run was itself a resume, from epoch 1.
        base = ["train", "--images", workdir / "train.idx", "--layout", "784-8", "--seed", "4"]
        first, run_dir = workdir / "first", workdir / "resumed-first"
        assert run(base + ["--epochs", "1", "--out", first]) == 0
        assert run(["train", "--images", workdir / "train.idx", "--resume",
                    first / "ckpt-final.bin", "--epochs", "3", "--checkpoint-every", "1",
                    "--out", run_dir]) == 0
        log = run_dir / "epochs.csv"
        assert [row.split(",")[0] for row in log.read_text().splitlines()[1:]] == ["1", "2"]
        assert run(["train", "--images", workdir / "train.idx", "--resume",
                    run_dir / "ckpt-epoch-00002.bin", "--epochs", "4", "--out", run_dir]) == 0
        assert [row.split(",")[0] for row in log.read_text().splitlines()[1:]] == ["1", "2", "3"]

    def test_resume_below_checkpoint_epoch_rejected(self, workdir, capsys):
        out = workdir / "ahead"
        assert run(["train", "--images", workdir / "train.idx", "--layout", "784-8",
                    "--epochs", "3", "--out", out]) == 0
        before = (out / "ckpt-final.bin").read_bytes()
        assert run(["train", "--images", workdir / "train.idx",
                    "--resume", out / "ckpt-final.bin", "--epochs", "1", "--out", out]) == 2
        assert "below" in capsys.readouterr().err
        assert (out / "ckpt-final.bin").read_bytes() == before

    def test_resume_rejects_flags_that_contradict_the_checkpoint(self, workdir, capsys):
        # --layout and --intra used to be ignored under --resume.
        out = workdir / "r784"
        assert run(["train", "--images", workdir / "train.idx", "--layout", "784-20",
                    "--epochs", "1", "--out", out]) == 0
        resume = ["train", "--images", workdir / "train.idx", "--resume",
                  out / "ckpt-final.bin", "--epochs", "2"]
        for flags in (["--layout", "10-5", "--intra", "1"], ["--layout", "784-21"],
                      ["--intra", "1"]):
            bad = workdir / "contradicted"
            assert run(resume + flags + ["--out", bad]) == 2
            assert "contradicts the checkpoint" in capsys.readouterr().err
            assert not bad.exists()

    def test_resume_accepts_flags_that_agree_with_the_checkpoint(self, workdir):
        out = workdir / "r784i"
        assert run(["train", "--images", workdir / "train.idx", "--layout", "784-20",
                    "--intra", "1", "--epochs", "1", "--out", out]) == 0
        resume = ["train", "--images", workdir / "train.idx", "--resume",
                  out / "ckpt-final.bin", "--epochs", "2"]
        for i, flags in enumerate((["--layout", "784-20", "--intra", "1"],
                                   ["--layout", "784-20"], ["--intra", "1"])):
            assert run(resume + flags + ["--out", workdir / f"agreed{i}"]) == 0
        finals = {(workdir / f"agreed{i}" / "ckpt-final.bin").read_bytes() for i in range(3)}
        assert len(finals) == 1

    def test_cd_resume_matches_uninterrupted_run(self, workdir):
        # The checkpoint names its method; a resume without --method used to
        # continue as VPF on the CD weights.
        base = ["train", "--images", workdir / "train.idx", "--seed", "5"]
        full = workdir / "cd-full"
        assert run(base + ["--method", "cd", "--layout", "784-20", "--epochs", "3",
                           "--checkpoint-every", "1", "--out", full]) == 0
        for i, flags in enumerate((["--method", "cd"], [])):
            resumed = workdir / f"cd-resumed{i}"
            assert run(base + flags + ["--resume", full / "ckpt-epoch-00001.bin",
                                       "--epochs", "3", "--out", resumed]) == 0
            assert ((resumed / "ckpt-final.bin").read_bytes()
                    == (full / "ckpt-final.bin").read_bytes())

    def test_pcd_resume_exits_2_before_writing(self, workdir, capsys):
        # The persistent chains are not checkpointed, so a resumed PCD run
        # used to exit 0 on different weights than an uninterrupted one.
        out, elsewhere = workdir / "pcd-run", workdir / "pcd-resumed"
        assert run(["train", "--images", workdir / "train.idx", "--layout", "784-20",
                    "--method", "pcd", "--epochs", "2", "--checkpoint-every", "1",
                    "--out", out]) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        resume = ["train", "--images", workdir / "train.idx", "--resume",
                  out / "ckpt-epoch-00001.bin", "--epochs", "3"]
        for flags in ([], ["--method", "pcd"]):
            for dest in (out, elsewhere):
                capsys.readouterr()
                assert run(resume + flags + ["--out", dest]) == 2
                assert "persistent chains are not checkpointed" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
        assert not elsewhere.exists()

    def test_pcd_with_k_writes_valid_checkpoint(self, workdir):
        from flowbm.model import validate

        out = workdir / "pcd"
        assert run(["train", "--images", workdir / "train.idx", "--layout", "784-20",
                    "--method", "pcd", "--k", "2", "--epochs", "2", "--out", out]) == 0
        assert validate(load_checkpoint(out / "ckpt-final.bin").machine()) == []
        text = (out / "config.txt").read_text()
        assert text.endswith("method = pcd\nk = 2\n")
        assert load_checkpoint(out / "ckpt-final.bin").config.to_text() in text

    def test_same_seed_bit_identical_checkpoints(self, workdir):
        args = ["train", "--images", workdir / "train.idx", "--layout", "784-8",
                "--epochs", "2", "--seed", "33"]
        a, b = workdir / "detA", workdir / "detB"
        assert run(args + ["--out", a]) == 0
        assert run(args + ["--out", b]) == 0
        assert (a / "ckpt-final.bin").read_bytes() == (b / "ckpt-final.bin").read_bytes()

    def test_resumed_checkpoint_loads_and_validates(self, workdir):
        from flowbm.model import validate

        out = workdir / "rv"
        assert run(["train", "--images", workdir / "train.idx", "--layout", "784-8",
                    "--epochs", "1", "--intra", "1", "--out", out]) == 0
        ck = load_checkpoint(out / "ckpt-final.bin")
        assert ck.layout.intra_layer == (True,)
        assert validate(ck.machine()) == []


class TestFailedWritesKeepOldFiles:
    """config.txt and recon.csv used to be truncated in place and then
    written: a write failing midway left only part of the run's record."""

    @pytest.fixture
    def disk_full_on(self, monkeypatch):
        """Make every write through `checkpoint.replacing` to a file of the
        given name store half its data and then fail."""
        replacing = ckpt_io.replacing

        class DiskFullMidway:
            def __init__(self, fh):
                self.fh = fh

            def write(self, data):
                self.fh.write(data[: len(data) // 2])
                raise OSError(errno.ENOSPC, "No space left on device")

        def arm(name):
            @contextlib.contextmanager
            def failing(path):
                with replacing(path) as fh:
                    yield DiskFullMidway(fh) if os.path.basename(path) == name else fh

            monkeypatch.setattr(ckpt_io, "replacing", failing)

        return arm

    def test_failed_rewrite_of_config_keeps_the_old_file(self, workdir, disk_full_on, capsys):
        run_dir = workdir / "config-full"
        assert run(["train", "--images", workdir / "train.idx", "--layout", "784-8", "--seed", "4",
                    "--epochs", "2", "--checkpoint-every", "1", "--out", run_dir]) == 0
        before = (run_dir / "config.txt").read_bytes()
        disk_full_on("config.txt")
        assert run(["train", "--images", workdir / "train.idx", "--resume",
                    run_dir / "ckpt-epoch-00001.bin", "--epochs", "3", "--eta", "0.01",
                    "--out", run_dir]) == 2
        assert "No space left on device" in capsys.readouterr().err
        assert (run_dir / "config.txt").read_bytes() == before
        assert not (run_dir / ".config.txt.tmp").exists()

    def test_failed_rewrite_of_recon_csv_keeps_the_old_file(self, workdir, disk_full_on,
                                                            capsys):
        out, rec = workdir / "recon-run", workdir / "recon-full"
        assert run(["train", "--images", workdir / "train.idx", "--layout", "784-8",
                    "--epochs", "1", "--out", out]) == 0
        base = ["reconstruct", "--checkpoint", out / "ckpt-final.bin", "--images",
                workdir / "test.idx", "--pattern", "top", "--limit", "5", "--out", rec]
        assert run(base + ["--trials", "1"]) == 0
        before = (rec / "recon.csv").read_bytes()
        disk_full_on("recon.csv")
        assert run(base + ["--trials", "2"]) == 2
        assert "No space left on device" in capsys.readouterr().err
        assert (rec / "recon.csv").read_bytes() == before
        assert not (rec / ".recon.csv.tmp").exists()

    # The image grids and the curve CSV used to be opened in place.
    def test_failed_rewrite_of_confabulations_keeps_the_old_file(self, workdir, disk_full_on,
                                                                 capsys):
        out, gen = workdir / "gen-run", workdir / "gen-full"
        assert run(["train", "--images", workdir / "train.idx", "--layout", "784-8",
                    "--epochs", "1", "--out", out]) == 0
        base = ["generate", "--checkpoint", out / "ckpt-final.bin", "--out", gen]
        assert run(base + ["--count", "3"]) == 0
        before = (gen / "confabulations.pgm").read_bytes()
        disk_full_on("confabulations.pgm")
        assert run(base + ["--count", "4"]) == 2
        assert "No space left on device" in capsys.readouterr().err
        assert (gen / "confabulations.pgm").read_bytes() == before
        assert not (gen / ".confabulations.pgm.tmp").exists()

    def test_failed_rewrite_of_triptych_keeps_the_old_file(self, workdir, disk_full_on, capsys):
        out, rec = workdir / "trip-run", workdir / "trip-full"
        assert run(["train", "--images", workdir / "train.idx", "--layout", "784-8",
                    "--epochs", "1", "--out", out]) == 0
        base = ["reconstruct", "--checkpoint", out / "ckpt-final.bin", "--images",
                workdir / "test.idx", "--pattern", "top", "--trials", "1", "--out", rec]
        assert run(base + ["--limit", "3"]) == 0
        before = (rec / "triptych-top.pgm").read_bytes()
        disk_full_on("triptych-top.pgm")
        assert run(base + ["--limit", "4"]) == 2
        assert "No space left on device" in capsys.readouterr().err
        assert (rec / "triptych-top.pgm").read_bytes() == before
        assert not (rec / ".triptych-top.pgm.tmp").exists()

    def test_failed_rewrite_of_stdp_curve_keeps_the_old_file(self, workdir, disk_full_on,
                                                            capsys):
        path = workdir / "curve.csv"
        base = ["stdp-curve", "--delta-pre", "1.0", "--delta-post", "1.0", "--dt-min", "-0.1",
                "--dt-max", "0.1", "--out", path]
        assert run(base + ["--points", "11"]) == 0
        before = path.read_bytes()
        assert before.startswith(b"dt,dw\r\n")
        disk_full_on("curve.csv")
        assert run(base + ["--points", "21"]) == 2
        assert "No space left on device" in capsys.readouterr().err
        assert path.read_bytes() == before
        assert not (workdir / ".curve.csv.tmp").exists()


class TestBlasThreads:
    """OpenBLAS splits a product by its thread count, and the split changes
    the product's bits: `train` used to write other bytes at
    `OPENBLAS_NUM_THREADS` 1 and 2."""

    def test_blas_thread_count_does_not_change_train_bytes(self, workdir):
        src = Path(__file__).resolve().parent.parent / "src"
        outputs = []
        for threads in ("1", "2", None):
            env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
            env["PYTHONPATH"] = str(src)
            if threads is not None:
                env["OPENBLAS_NUM_THREADS"] = threads
            out = workdir / f"blas-{threads}"
            # 784-32 is a shape whose products OpenBLAS splits at 2 threads.
            subprocess.run([sys.executable, "-m", "flowbm.cli", "train", "--images",
                            str(workdir / "train.idx"), "--layout", "784-32", "--epochs", "2",
                            "--seed", "5", "--out", str(out)],
                           env=env, check=True, capture_output=True)
            with open(out / "epochs.csv", newline="", encoding="utf-8") as fh:
                rows = list(csv.reader(fh))
            wall = rows[0].index("wall_time_s")
            outputs.append(((out / "ckpt-final.bin").read_bytes(),
                            [row[:wall] + row[wall + 1:] for row in rows]))
        assert outputs[1] == outputs[0]
        assert outputs[2] == outputs[0]

    def test_main_runs_at_one_blas_thread_and_restores_the_count(self, workdir, monkeypatch):
        calls = cli._blas_thread_calls()
        if not calls:
            pytest.skip("no OpenBLAS is loaded")
        before = [get() for _, get in calls]
        seen = []
        train_vpf = training.train_vpf

        def spy(*args, **kwargs):
            seen.append([get() for _, get in calls])
            return train_vpf(*args, **kwargs)

        monkeypatch.setattr(training, "train_vpf", spy)
        try:
            for set_count, _ in calls:
                set_count(3)
            assert run(["train", "--images", workdir / "train.idx", "--layout", "784-8",
                        "--epochs", "1", "--out", workdir / "blas-run"]) == 0
            assert seen == [[1] * len(calls)]
            assert [get() for _, get in calls] == [3] * len(calls)
            # A command that exits 2 restores the count too.
            assert run(["train", "--images", workdir / "missing.idx", "--layout", "784-8",
                        "--out", workdir / "blas-fail"]) == 2
            assert [get() for _, get in calls] == [3] * len(calls)
        finally:
            for (set_count, _), count in zip(calls, before):
                set_count(count)
