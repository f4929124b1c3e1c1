import numpy as np
import pytest

from conftest import make_machine, random_bits
from exact_oracles import dense_weights
from flowbm.model import BoltzmannMachine, LayerSpec, validate
from flowbm.mpf import Gradient, gradient_and_objective
from flowbm.optim import (
    AdamState,
    TrainConfig,
    init_adam,
    load_config,
    parse_config_items,
    parse_config_text,
    step,
)


def scalar_machine(w=0.0, b=(0.0, 0.0)):
    layout = LayerSpec((2,))
    return BoltzmannMachine.from_dense(
        layout, np.array([[0.0, w], [w, 0.0]]), np.array(b, dtype=float)
    )


def w01(m):
    """The machine's one edge weight (vertices 0 and 1)."""
    return m.block(0, 0)[0, 1]


class TestTrainConfig:
    def test_experiment_defaults(self):
        cfg = TrainConfig()
        assert cfg.eta == 0.001
        assert cfg.beta1 == 0.9
        assert cfg.beta2 == 0.999
        assert cfg.adam_eps == 1e-8
        assert cfg.weight_decay == 0.0001
        assert cfg.minibatch == 40
        assert cfg.r == 5
        assert cfg.intra_sweeps == 1
        assert cfg.init_scale == 0.01
        assert cfg.clamp_z == 30.0
        assert cfg.method == "vpf" and cfg.k == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(eta=0.0)
        with pytest.raises(ValueError):
            TrainConfig(beta1=1.0)
        with pytest.raises(ValueError):
            TrainConfig(minibatch=0)

    @pytest.mark.parametrize("field, value", [
        ("eta", float("nan")), ("eta", float("inf")),
        ("weight_decay", float("nan")), ("weight_decay", float("inf")),
        ("clamp_z", float("nan")), ("clamp_z", float("inf")),
        ("clamp_z", 0.0), ("weight_decay", -1e-4), ("adam_eps", 0.0), ("init_scale", 0.0),
        ("r", 0), ("intra_sweeps", -1), ("method", "sgd"), ("k", 0),
    ])
    def test_rejects_nonfinite_and_degenerate_values(self, field, value):
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: value})
        with pytest.raises(ValueError, match=field):
            parse_config_items({field: repr(value)})

    def test_config_file_roundtrip(self, tmp_path):
        cfg = TrainConfig(eta=0.0025, minibatch=17, seed=99, epochs=7)
        path = tmp_path / "run.cfg"
        path.write_text(cfg.to_text())
        loaded = load_config(path)
        assert loaded == cfg

    def test_method_and_k_round_trip_through_text(self):
        cfg = TrainConfig(method="pcd", k=3)
        assert "method = pcd\nk = 3\n" in cfg.to_text()
        assert parse_config_items({"method": " cd ", "k": "2"}) == TrainConfig(method="cd", k=2)
        assert parse_config_text(cfg.to_text()) == cfg

    def test_k_other_than_1_needs_cd_or_pcd(self):
        with pytest.raises(ValueError, match="1 for method vpf, got 2"):
            TrainConfig(k=2)
        with pytest.raises(ValueError, match="1 for method vpf, got 2"):
            parse_config_items({"method": "vpf"}, TrainConfig(method="cd", k=2))

    def test_config_file_aliases_and_comments(self, tmp_path):
        # lambda, lr and learning_rate used to set weight_decay and eta; a
        # field has one spelling now.
        path = tmp_path / "run.cfg"
        path.write_text("# comment line\nweight_decay = 0.01\neta = 0.005 # note\nepochs=3\n")
        cfg = load_config(path)
        assert (cfg.weight_decay, cfg.eta, cfg.epochs) == (0.01, 0.005, 3)
        for alias in ("lambda", "lr", "learning_rate"):
            path.write_text(f"epochs = 3\n{alias} = 0.01\n")
            with pytest.raises(ValueError, match=f"unknown config key '{alias}'"):
                load_config(path)

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            parse_config_items({"velocity": "1"})

    def test_integer_fields_stay_integers(self):
        cfg = parse_config_items({"minibatch": "12", "seed": "5"})
        assert isinstance(cfg.minibatch, int) and isinstance(cfg.seed, int)

    def test_unparsable_value_names_the_key(self):
        for key, value, kind in (("r", "2.5", "int"), ("eta", "fast", "float")):
            with pytest.raises(ValueError, match=f"{key} must be {kind}, got '{value}'"):
                parse_config_items({key: value})

    @pytest.mark.parametrize("text, lineno", [
        ("eta = 0.5\neta = 0.1\n", 2),
        ("eta = 0.5\n# note\neta = 0.1\n", 3),
    ], ids=["repeat", "comment"])
    def test_key_repeated_in_config_file_rejected(self, tmp_path, text, lineno):
        path = tmp_path / "run.cfg"
        path.write_text(text)
        message = rf"run.cfg:{lineno}: 'eta' sets eta again \(already set on line 1\)"
        with pytest.raises(ValueError, match=message):
            load_config(path)


class TestAdamStep:
    def test_first_step_is_signed_learning_rate(self):
        # With bias correction, m_hat = g and v_hat = g^2, so the first
        # update is -eta * g / (|g| + eps) for every parameter.
        m = scalar_machine()
        st = init_adam(m)
        cfg = TrainConfig(weight_decay=0.0)
        g = Gradient(np.array([0.0, 0.3, 0.3, 0.0]), np.array([0.1, -0.2]))
        step(m, g, st, cfg)
        assert w01(m) == pytest.approx(-cfg.eta * 0.3 / (0.3 + cfg.adam_eps), rel=1e-12)
        assert m.biases[0] == pytest.approx(-cfg.eta * 0.1 / (0.1 + cfg.adam_eps), rel=1e-12)
        assert m.biases[1] == pytest.approx(cfg.eta * 0.2 / (0.2 + cfg.adam_eps), rel=1e-12)
        assert st.t == 1

    def test_zero_gradient_no_decay_is_identity(self):
        m = make_machine(4, seed=0)
        before_w, before_b = m.weights.copy(), m.biases.copy()
        st = init_adam(m)
        g = Gradient(np.zeros_like(m.weights), np.zeros(4))
        step(m, g, st, TrainConfig(weight_decay=0.0))
        np.testing.assert_array_equal(m.weights, before_w)
        np.testing.assert_array_equal(m.biases, before_b)
        assert st.t == 1

    def test_pure_decay_shrinks_weights(self):
        m = make_machine(4, seed=1)
        before_w, before_b = dense_weights(m), m.biases.copy()
        st = init_adam(m)
        cfg = TrainConfig(weight_decay=0.01)
        step(m, Gradient(np.zeros_like(m.weights), np.zeros(4)), st, cfg)
        off = ~np.eye(4, dtype=bool)
        after_w = dense_weights(m)
        assert (np.abs(after_w[off]) < np.abs(before_w[off])).all()
        assert (np.sign(after_w[off]) == np.sign(before_w[off])).all()
        np.testing.assert_array_equal(m.biases, before_b)  # no decay on biases

    def test_matches_reference_adam_recurrence(self):
        # Independent scalar re-derivation of the Adam recurrences, fed the
        # same quadratic-gradient sequence for 100 steps.
        cfg = TrainConfig(weight_decay=0.0)
        m = scalar_machine(w=0.8, b=(0.4, 0.0))
        st = init_adam(m)

        theta_w, theta_b = 0.8, 0.4
        m1w = v1w = m1b = v1b = 0.0
        for t in range(1, 101):
            g_w = 2.0 * (theta_w - 0.25)  # d/dw of (w - 0.25)^2
            g_b = 2.0 * (theta_b + 0.5)
            m1w = cfg.beta1 * m1w + (1 - cfg.beta1) * g_w
            v1w = cfg.beta2 * v1w + (1 - cfg.beta2) * g_w**2
            m1b = cfg.beta1 * m1b + (1 - cfg.beta1) * g_b
            v1b = cfg.beta2 * v1b + (1 - cfg.beta2) * g_b**2
            theta_w -= cfg.eta * (m1w / (1 - cfg.beta1**t)) / (
                np.sqrt(v1w / (1 - cfg.beta2**t)) + cfg.adam_eps
            )
            theta_b -= cfg.eta * (m1b / (1 - cfg.beta1**t)) / (
                np.sqrt(v1b / (1 - cfg.beta2**t)) + cfg.adam_eps
            )

            g_w = 2.0 * (w01(m) - 0.25)
            g = Gradient(np.array([0.0, g_w, g_w, 0.0]), np.array([2.0 * (m.biases[0] + 0.5), 0.0]))
            step(m, g, st, cfg)
            assert w01(m) == pytest.approx(theta_w, abs=1e-10)
            assert m.biases[0] == pytest.approx(theta_b, abs=1e-10)

    def test_shape_mismatch_rejected(self):
        m = make_machine(3, seed=0)
        with pytest.raises(ValueError):
            step(m, Gradient(np.zeros(16), np.zeros(4)), init_adam(m), TrainConfig())
        with pytest.raises(ValueError):
            step(m, Gradient(np.zeros((3, 3)), np.zeros(3)), init_adam(m), TrainConfig())

    def test_invariants_hold_under_fuzzing(self):
        # 500 random symmetric gradients on a layered machine, restricted to
        # the stored blocks.
        from conftest import make_layered_machine

        rng = np.random.default_rng(123)
        m = make_layered_machine((5, 4, 3), (True, False), seed=7, w_scale=0.3)
        st = init_adam(m)
        cfg = TrainConfig(weight_decay=0.0005)
        for i in range(500):
            raw = rng.normal(0, 1.0, (m.n, m.n))
            gw = (raw + raw.T) / 2
            np.fill_diagonal(gw, 0.0)
            stored = BoltzmannMachine.from_dense(m.layout, gw, np.zeros(m.n)).weights
            step(m, Gradient(stored, rng.normal(0, 1.0, m.n)), st, cfg)
            assert validate(m) == []
        assert st.t == 500

    def test_objective_descends_on_fixed_batch(self):
        # Non-increasing objective at every recorded step in >= 95% of
        # random trials at the default learning rate.
        rng = np.random.default_rng(0)
        trials, monotone = 40, 0
        for trial in range(trials):
            m = make_machine(6, seed=trial, w_scale=0.5, b_scale=0.3)
            batch = random_bits(rng, (12, 6))
            st = init_adam(m)
            cfg = TrainConfig(weight_decay=0.0)
            g, value = gradient_and_objective(m, batch)
            values = [value]
            for _ in range(200):
                step(m, g, st, cfg)
                g, value = gradient_and_objective(m, batch)
                values.append(value)
            if np.all(np.diff(values) <= 1e-12):
                monotone += 1
        assert monotone / trials >= 0.95

