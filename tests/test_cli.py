import os
import time

import numpy as np
import pytest

from conftest import write_idx_images, write_idx_labels
from flowbm.cli import build_parser, main
from flowbm.checkpoint import load_checkpoint
from flowbm.images import read_pgm
from flowbm.stdp import read_stdp_csv

SUBCOMMANDS = ("train", "generate", "reconstruct", "eval-ll", "stdp-curve", "inspect")


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
        out = workdir / "run-c"
        assert run(["train", "--images", workdir / "train.idx", "--layout", "784-6",
                    "--epochs", "1", "--out", out]) == 0
        args = [cmd[0], "--checkpoint", out / "ckpt-final.bin"]
        args += [a.format(w=workdir) for a in cmd[1:]]
        assert run(args) == 2
        assert "at least 1" in capsys.readouterr().err
        assert not (workdir / "gen-zero").exists()


class TestEndToEnd:
    def test_full_pipeline(self, workdir):
        out = workdir / "run1"
        code = run(
            ["train", "--images", workdir / "train.idx", "--labels", workdir / "labels.idx",
             "--layout", "784-10", "--epochs", "2", "--minibatch", "30",
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
        monkeypatch.setenv("FLOWBM_THREADS", "2")
        assert run(args + ["--out", out3]) == 0
        ref = (out1 / "ckpt-final.bin").read_bytes()
        assert (out2 / "ckpt-final.bin").read_bytes() == ref
        assert (out3 / "ckpt-final.bin").read_bytes() == ref


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

    def test_resume_below_checkpoint_epoch_rejected(self, workdir, capsys):
        out = workdir / "ahead"
        assert run(["train", "--images", workdir / "train.idx", "--layout", "784-8",
                    "--epochs", "3", "--out", out]) == 0
        before = (out / "ckpt-final.bin").read_bytes()
        assert run(["train", "--images", workdir / "train.idx",
                    "--resume", out / "ckpt-final.bin", "--epochs", "1", "--out", out]) == 2
        assert "below" in capsys.readouterr().err
        assert (out / "ckpt-final.bin").read_bytes() == before

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
