import csv
import dataclasses
import hashlib

import numpy as np
import pytest

from conftest import zero_machine
from exact_oracles import all_state_energies, dense_weights, enumerate_states
from flowbm.checkpoint import Checkpoint, serialize
from flowbm.model import BoltzmannMachine, LayerSpec, validate
from flowbm.mpf import gradient_and_objective
from flowbm.optim import TrainConfig, init_adam
from flowbm.sampling import e_step_batch, row_streams
from flowbm.training import (
    TAG_ESTEP,
    TAG_INIT,
    TAG_SHUFFLE,
    DivergenceError,
    EpochLog,
    init_state,
    train_cd,
    train_vpf,
)


def planted_machine(seed: int) -> BoltzmannMachine:
    rng = np.random.default_rng(seed)
    layout = LayerSpec((4,))
    w = rng.normal(0.0, 1.0, (4, 4))
    w = (w + w.T) / 2.0
    np.fill_diagonal(w, 0.0)
    return BoltzmannMachine.from_dense(layout, w, rng.normal(0.0, 0.4, 4))


def state_of(m: BoltzmannMachine, cfg: TrainConfig) -> Checkpoint:
    """The epoch-0 training state of a given machine."""
    return Checkpoint(m.layout, m.weights, m.biases, init_adam(m), cfg, 0)


def exact_samples(m: BoltzmannMachine, count: int, seed: int) -> np.ndarray:
    """Exact Boltzmann sampling by full enumeration of the 2^n states."""
    p = np.exp(-all_state_energies(m))
    p /= p.sum()
    rng = np.random.default_rng(seed)
    idx = rng.choice(p.size, size=count, p=p)
    return enumerate_states(m.n)[idx].astype(np.uint8)


def bars_data(count: int, seed: int) -> np.ndarray:
    """12-bit union-of-bars patterns with 5% pixel noise."""
    rng = np.random.default_rng(seed)
    protos = np.zeros((3, 12), dtype=np.uint8)
    for k in range(3):
        protos[k, 4 * k : 4 * k + 4] = 1
    rows = []
    for _ in range(count):
        v = np.zeros(12, dtype=np.uint8)
        for k in rng.choice(3, size=rng.integers(1, 3), replace=False):
            v |= protos[k]
        flip = rng.random(12) < 0.05
        rows.append(np.where(flip, 1 - v, v).astype(np.uint8))
    return np.array(rows)


class TestTrainVpf:
    def test_fully_observed_recovers_planted_model(self):
        true = planted_machine(seed=7)
        data = exact_samples(true, count=10_000, seed=1)
        state = init_state(true.layout, TrainConfig(epochs=80, seed=3))
        logs = train_vpf(data, state)
        m = state.machine()
        iu = np.triu_indices(4, 1)
        truth = np.concatenate([dense_weights(true)[iu], true.biases])
        fit = np.concatenate([dense_weights(m)[iu], m.biases])
        corr = np.corrcoef(truth, fit)[0, 1]
        assert corr > 0.95
        assert len(logs) == 80

    def test_fully_observed_layout_builds_no_estep_stream(self, monkeypatch):
        # A layout without hidden layers has nothing to infer, and every
        # stream costs a seeding: the epoch builds only its shuffle stream.
        import flowbm.training as training

        tags = []

        def counting(make):
            def wrapped(seed, tag, *args, **kwargs):
                tags.append(tag)
                return make(seed, tag, *args, **kwargs)
            return wrapped

        monkeypatch.setattr(training, "stream", counting(training.stream))
        monkeypatch.setattr(training, "row_streams", counting(training.row_streams))
        data = bars_data(50, seed=3)
        train_vpf(data[:, :4], state_of(planted_machine(0), TrainConfig(epochs=1)))
        assert tags == [TAG_SHUFFLE]
        tags.clear()
        train_vpf(data, init_state(LayerSpec((12, 3), (False,)), TrainConfig(epochs=1)))
        assert tags == [TAG_INIT, TAG_ESTEP, TAG_SHUFFLE]

    def test_same_seed_bit_identical_logs_and_weights(self):
        data = bars_data(200, seed=4)
        layout = LayerSpec((12, 5), (False,))
        cfg = TrainConfig(epochs=4, seed=77)
        m1, m2 = init_state(layout, cfg), init_state(layout, cfg)
        logs1 = train_vpf(data, m1)
        logs2 = train_vpf(data, m2)
        assert [l.objective_value for l in logs1] == [l.objective_value for l in logs2]
        np.testing.assert_array_equal(m1.weights, m2.weights)
        np.testing.assert_array_equal(m1.biases, m2.biases)

    def test_machine_invariants_after_every_epoch(self):
        data = bars_data(120, seed=5)
        layout = LayerSpec((12, 4, 3), (True, True))
        seen = []

        def check(state, pairs, log):
            seen.append(log.epoch)
            assert validate(state.machine()) == []

        train_vpf(data, init_state(layout, TrainConfig(epochs=3, seed=1)), epoch_callback=check)
        assert seen == [0, 1, 2]

    def test_mstep_objective_decreases_within_epochs(self):
        # Flow objective over the epoch's frozen pairs, before vs after the
        # minibatch sweep; must decrease in >= 90% of epochs after epoch 3.
        data = bars_data(400, seed=3)
        layout = LayerSpec((12, 6), (False,))
        cfg = TrainConfig(epochs=15, seed=9)
        state = init_state(layout, cfg)
        prev = (state.weights.copy(), state.biases.copy())
        checked, decreased = 0, 0

        def track(state, pairs, log):
            nonlocal prev, checked, decreased
            epoch, m = log.epoch, state.machine()
            start = BoltzmannMachine(layout, prev[0], prev[1])
            if epoch > 3:
                checked += 1
                after = gradient_and_objective(m, pairs)[1]
                decreased += after < gradient_and_objective(start, pairs)[1]
            prev = (m.weights.copy(), m.biases.copy())

        train_vpf(data, state, epoch_callback=track)
        assert checked == 11
        assert decreased / checked >= 0.90

    def test_estep_uses_frozen_epoch_start_parameters(self):
        # Recomputing the inference pass with the epoch-start snapshot and
        # the epoch's streams must reproduce the pairs used by the M-step.
        data = bars_data(90, seed=8)
        layout = LayerSpec((12, 5, 4), (True, False))
        cfg = TrainConfig(epochs=3, seed=21, minibatch=16)
        state = init_state(layout, cfg)
        snapshot = (state.weights.copy(), state.biases.copy())
        failures = []

        def verify(state, pairs, log):
            nonlocal snapshot
            epoch, m = log.epoch, state.machine()
            start = BoltzmannMachine(layout, snapshot[0], snapshot[1])
            layers = e_step_batch(
                start, data, row_streams(cfg.seed, TAG_ESTEP, epoch, count=len(data)),
                cfg.intra_sweeps,
            )
            expected = np.concatenate(layers, axis=1)
            if not np.array_equal(expected, pairs):
                failures.append(epoch)
            snapshot = (m.weights.copy(), m.biases.copy())

        train_vpf(data, state, epoch_callback=verify)
        assert failures == []

    def test_objective_is_nonnegative_in_logs(self):
        data = bars_data(100, seed=2)
        state = init_state(LayerSpec((12, 4), (False,)), TrainConfig(epochs=2, seed=5))
        logs = train_vpf(data, state)
        assert all(log.objective_value >= 0 for log in logs)

    def test_rejects_empty_or_mismatched_data(self):
        layout = LayerSpec((12, 4), (False,))
        with pytest.raises(ValueError):
            train_vpf(np.zeros((0, 12), dtype=np.uint8), init_state(layout, TrainConfig(epochs=1)))
        with pytest.raises(ValueError):
            train_vpf(np.zeros((5, 9), dtype=np.uint8), init_state(layout, TrainConfig(epochs=1)))

    def test_thread_count_does_not_change_results(self):
        data = bars_data(300, seed=6)
        layout = LayerSpec((12, 5), (True,))
        cfg = TrainConfig(epochs=2, seed=13)
        m1, m2 = init_state(layout, cfg), init_state(layout, cfg)
        logs1 = train_vpf(data, m1, threads=1)
        logs2 = train_vpf(data, m2, threads=4)
        np.testing.assert_array_equal(m1.weights, m2.weights)
        assert logs1[-1].objective_value == logs2[-1].objective_value

    def test_pinned_dense_weights_of_small_intra_run(self):
        # SHA-256 of the dense (n, n) weights and of the biases after a fixed
        # intra-layer run, recorded when the machine still kept a dense
        # matrix: the block store must reproduce that run bit for bit.
        rng = np.random.default_rng(2024)
        data = (rng.random((90, 12)) < 0.3).astype(np.uint8)
        layout = LayerSpec((12, 6, 5), (True, True))
        cfg = TrainConfig(epochs=3, minibatch=10, seed=5, eta=0.01)
        state = init_state(layout, cfg)
        logs = train_vpf(data, state, threads=2)
        m = state.machine()

        def sha(a):
            return hashlib.sha256(np.ascontiguousarray(a, dtype="<f8").tobytes()).hexdigest()

        assert sha(dense_weights(m)) == (
            "4d360968823ef142633d37375f879d42c9d8d5075381220b2cc94ab40b969a06")
        assert sha(m.biases) == (
            "f294219ebb74ad2c4c07138312cc5525b3d3761e73da96a3cb701c3d11426c59")
        assert logs[-1].objective_value == 22.14840483405332

    def test_divergence_stops_before_the_epoch_callback(self):
        data = bars_data(40, seed=1)
        layout = LayerSpec((12, 4), (False,))
        cfg = TrainConfig(epochs=3, seed=2, init_scale=1e4, clamp_z=1e300)
        seen = []
        with np.errstate(all="ignore"), pytest.raises(DivergenceError, match="epoch 0"):
            train_vpf(data, init_state(layout, cfg),
                      epoch_callback=lambda *args: seen.append(args[0]))
        assert seen == []


class TestTrainCd:
    def test_zero_epochs_returns_initialized_machine(self):
        layout = LayerSpec((12, 4), (False,))
        cfg = TrainConfig(epochs=0, seed=11, method="cd")
        expected, m = init_state(layout, cfg), init_state(layout, cfg)
        logs = train_cd(bars_data(50, seed=0), m)
        np.testing.assert_array_equal(m.weights, expected.weights)
        assert logs == []

    @pytest.mark.parametrize("k,persistent", [(1, False), (10, False), (1, True), (10, True)])
    def test_supported_variants_run(self, k, persistent):
        data = bars_data(80, seed=1)
        layout = LayerSpec((12, 4), (False,))
        method = "pcd" if persistent else "cd"
        state = init_state(layout, TrainConfig(epochs=2, seed=3, method=method, k=k))
        logs = train_cd(data, state)
        assert validate(state.machine()) == []
        assert len(logs) == 2
        assert all(log.objective_value >= 0 for log in logs)

    def test_rejects_non_rbm_layouts(self):
        cfg = TrainConfig(epochs=1, method="cd")
        with pytest.raises(ValueError, match="one-hidden-layer"):
            train_cd(bars_data(10, 0), init_state(LayerSpec((12, 4, 3), (False, False)), cfg))
        with pytest.raises(ValueError, match="one-hidden-layer"):
            train_cd(bars_data(10, 0), init_state(LayerSpec((12, 4), (True,)), cfg))
        with pytest.raises(ValueError, match="k must be at least 1"):
            TrainConfig(epochs=1, method="cd", k=0)

    def test_each_trainer_rejects_the_other_methods(self):
        data, layout = bars_data(10, 0), LayerSpec((12, 4), (False,))
        with pytest.raises(ValueError, match="train_cd runs method cd or pcd, got vpf"):
            train_cd(data, init_state(layout, TrainConfig(epochs=1)))
        for method in ("cd", "pcd"):
            with pytest.raises(ValueError, match=f"train_vpf runs method vpf, got {method}"):
                train_vpf(data, init_state(layout, TrainConfig(epochs=1, method=method)))

    def test_hidden_bias_gradient_vanishes_at_origin(self):
        # At w = 0, b = 0 the positive and negative hidden probabilities are
        # both exactly 1/2, so a single update from the origin (one
        # minibatch) leaves the hidden biases at exactly zero while the
        # other parameters move.
        layout = LayerSpec((12, 6), (False,))
        m0 = zero_machine(layout)
        data = bars_data(40, seed=4)
        m = state_of(m0, TrainConfig(epochs=1, seed=5, minibatch=40, method="cd"))
        train_cd(data, m)
        np.testing.assert_array_equal(m.biases[12:], np.zeros(6))
        assert np.abs(m.biases[:12]).max() > 0

    def test_deterministic(self):
        data = bars_data(100, seed=9)
        layout = LayerSpec((12, 4), (False,))
        cfg = TrainConfig(epochs=2, seed=31, method="pcd", k=2)
        m1, m2 = init_state(layout, cfg), init_state(layout, cfg)
        train_cd(data, m1)
        train_cd(data, m2)
        np.testing.assert_array_equal(m1.weights, m2.weights)


class TestResume:
    @pytest.mark.parametrize("train, cfg, layout", [
        (lambda data, state, cb: train_vpf(data, state, threads=2, epoch_callback=cb),
         TrainConfig(epochs=1, seed=8, minibatch=16), LayerSpec((12, 5, 4), (True, False))),
        (lambda data, state, cb: train_cd(data, state, epoch_callback=cb),
         TrainConfig(epochs=1, seed=8, minibatch=16, method="cd"), LayerSpec((12, 4), (False,))),
    ], ids=["vpf", "cd"])
    def test_advancing_a_state_twice_ends_on_the_uninterrupted_bytes(self, train, cfg, layout):
        # A new run is a resume from epoch 0, and a resumed run is the same
        # state advanced further: both must reach the same checkpoint bytes.
        data = bars_data(90, seed=12)
        seen = []

        def check(state, pairs, log):
            assert state.epoch == log.epoch + 1
            seen.append(log.epoch)

        state = init_state(layout, cfg)
        assert [log.epoch for log in train(data, state, check)] == [0]
        state.config = dataclasses.replace(state.config, epochs=3)
        assert [log.epoch for log in train(data, state, check)] == [1, 2]
        assert seen == [0, 1, 2]
        whole = init_state(layout, dataclasses.replace(cfg, epochs=3))
        train(data, whole, None)
        assert state.epoch == whole.epoch == 3
        assert serialize(state) == serialize(whole)


class TestEpochCsv:
    def test_roundtrip(self, tmp_path):
        logs = [EpochLog(0, 1.5, 0.4, 0.2, 0.01), EpochLog(1, 1.25, 0.35, 0.25, 0.02)]
        path = tmp_path / "epochs.csv"
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows([EpochLog.csv_header()] + [log.csv_row() for log in logs])
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "epoch,objective_value,weight_sparsity,squared_weight,wall_time_s"
        assert len(lines) == 3
        assert lines[1].startswith("0,1.5,")
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert [EpochLog(int(r[0]), *map(float, r[1:])) for r in rows] == logs
