import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import make_machine, random_bits
from exact_oracles import dense_weights
from flowbm import optim
from flowbm.model import BoltzmannMachine, LayerSpec, new_machine, validate
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


def whole_vector_step(m, g, st, cfg):
    """`step` as it was before it worked in chunks: one numpy expression per
    Adam recurrence over each whole vector, kept as the bit reference."""
    st.t += 1
    bc1 = 1.0 - cfg.beta1**st.t
    bc2 = 1.0 - cfg.beta2**st.t

    def adam_update(param, grad, m1, m2):
        m1 *= cfg.beta1
        m1 += (1.0 - cfg.beta1) * grad
        m2 *= cfg.beta2
        m2 += (1.0 - cfg.beta2) * grad**2
        param -= cfg.eta * (m1 / bc1) / (np.sqrt(m2 / bc2) + cfg.adam_eps)

    adam_update(m.weights, g.d_weights + 2.0 * cfg.weight_decay * m.weights, st.m1_w, st.m2_w)
    adam_update(m.biases, g.d_biases, st.m1_b, st.m2_b)


def sha(a):
    return hashlib.sha256(np.ascontiguousarray(a, dtype="<f8").tobytes()).hexdigest()


def mstep_digests(layout: str, intra: str) -> dict[str, str]:
    """SHA-256 of one flow gradient on 40 fixed rows, and of the parameters
    and moments after three gradient-and-step rounds on the same rows."""
    m = new_machine(LayerSpec.from_strings(layout, intra), seed=17, init_scale=0.1)
    batch = (np.random.default_rng(17).random((40, m.layout.n)) < 0.3).astype(np.uint8)
    g, objective = gradient_and_objective(m, batch)
    digests = {"d_weights": sha(g.d_weights), "d_biases": sha(g.d_biases),
               "objective": repr(objective)}
    st, cfg = init_adam(m), TrainConfig(eta=0.01)
    for _ in range(3):
        step(m, gradient_and_objective(m, batch)[0], st, cfg)
    for name, a in (("weights", m.weights), ("biases", m.biases), ("m1_w", st.m1_w),
                    ("m2_w", st.m2_w), ("m1_b", st.m1_b), ("m2_b", st.m2_b)):
        digests[name] = sha(a)
    return digests


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
        ("r", 0), ("intra_sweeps", -1), ("method", "sgd"), ("k", 0), ("epochs", -1),
    ])
    def test_rejects_nonfinite_and_degenerate_values(self, field, value):
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: value})
        with pytest.raises(ValueError, match=field):
            parse_config_items({field: repr(value)})

    @pytest.mark.parametrize("field, value", [("eta", float("nan")), ("minibatch", 0),
                                              ("method", "sgd")])
    def test_fields_cannot_be_reassigned_past_the_check(self, field, value):
        # `cfg.eta = nan` was accepted, and `init_state` then gave a state
        # whose serialized bytes `deserialize` rejected.
        cfg = TrainConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cfg, field, value)
        assert cfg == TrainConfig()
        with pytest.raises(ValueError, match=field):
            dataclasses.replace(cfg, **{field: value})

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
            raw = rng.normal(0, 1.0, (m.layout.n, m.layout.n))
            gw = (raw + raw.T) / 2
            np.fill_diagonal(gw, 0.0)
            stored = BoltzmannMachine.from_dense(m.layout, gw, np.zeros(m.layout.n)).weights
            step(m, Gradient(stored, rng.normal(0, 1.0, m.layout.n)), st, cfg)
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


    @pytest.mark.parametrize("field", ["weights", "biases", "m1_w", "m2_w", "m1_b", "m2_b"])
    def test_bad_state_shape_changes_nothing(self, field):
        # A moment one element too long used to fail only after `t` had
        # advanced and the earlier moments had been updated.
        rng = np.random.default_rng(3)
        m = make_machine(5, seed=2)
        st = init_adam(m)
        g = Gradient(rng.normal(size=m.weights.shape), rng.normal(size=m.biases.shape))
        step(m, g, st, TrainConfig())
        if field in ("weights", "biases"):
            # A frozen machine cannot be resized, so the step gets another
            # machine whose other vector still fits: 5 vertices, or 25 edges.
            sizes = (3, 2) if field == "weights" else (5, 5)
            m = new_machine(LayerSpec(sizes, (False,)), seed=4)
            other = "biases" if field == "weights" else "weights"
            assert getattr(m, other).shape == getattr(g, "d_" + other).shape
            assert getattr(m, field).shape != getattr(g, "d_" + field).shape
        else:
            setattr(st, field, np.append(getattr(st, field), 0.5))
        before = [a.copy() for a in (m.weights, m.biases, st.m1_w, st.m2_w, st.m1_b, st.m2_b)]
        with pytest.raises(ValueError, match="shapes do not match"):
            step(m, g, st, TrainConfig())
        after = (m.weights, m.biases, st.m1_w, st.m2_w, st.m1_b, st.m2_b)
        for a, b in zip(before, after):
            np.testing.assert_array_equal(a, b)
        assert st.t == 1

    @pytest.mark.parametrize("length", [1, optim._CHUNK - 1, optim._CHUNK, optim._CHUNK + 1,
                                        3 * optim._CHUNK + 7])
    def test_chunked_step_equals_whole_vector_formula(self, length):
        # One visible unit under `length` hidden ones: both the weight and
        # the bias vector end on a chunk boundary or a ragged tail.
        rng = np.random.default_rng(length)
        layout = LayerSpec((1, length), (False,))
        w, b = rng.normal(0, 0.1, layout.edges), rng.normal(0, 0.1, layout.n)
        m, ref = BoltzmannMachine(layout, w, b), BoltzmannMachine(layout, w.copy(), b.copy())
        st, ref_st = init_adam(m), init_adam(ref)
        cfg = TrainConfig(eta=0.01, weight_decay=0.01)
        for _ in range(3):
            g = Gradient(rng.normal(size=w.shape), rng.normal(size=b.shape))
            step(m, g, st, cfg)
            whole_vector_step(ref, g, ref_st, cfg)
        np.testing.assert_array_equal(m.weights, ref.weights)
        np.testing.assert_array_equal(m.biases, ref.biases)
        for name in ("m1_w", "m2_w", "m1_b", "m2_b"):
            np.testing.assert_array_equal(getattr(st, name), getattr(ref_st, name))
        assert st.t == ref_st.t == 3

    def test_step_makes_no_whole_vector_temporary(self):
        # One 784-196 weight vector is 1.23 MB; the whole-vector formula
        # peaked at 4.9 MB, the chunked step at 0.26 MB.
        m = new_machine(LayerSpec((784, 196), (False,)), seed=1)
        rng = np.random.default_rng(1)
        g = Gradient(rng.normal(size=m.weights.shape), rng.normal(size=m.biases.shape))
        st, cfg = init_adam(m), TrainConfig()
        tracemalloc.start()
        try:
            step(m, g, st, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


# Recorded before the gradient's blocks and Adam's update were computed in
# place: vectors of several chunks with a ragged tail (784-60 has 47,040
# edges), and an intra layout.
MSTEP_PINS = {
    ("784-60", ""): {
        "d_weights": "3a5b0fc058cda199c1904d4520e06a71b1d799dc492f7761f6bf9ee0360e2e2b",
        "d_biases": "48ed4b53b01962a38e9f7a16d7c68117208f6af5264a7cfd8fee4c11c00c3427",
        "objective": "849.4318712143246",
        "weights": "972690abe15e341587b67dd2bf92a276f371d60cf5c0aa1d85b978894dd1ed23",
        "biases": "9a9948089792577693902db4e9006f7a2074af365d56b1144e42f9cad097b6a8",
        "m1_w": "0e0f491867c639a65b547d7c747db84082251e8f73b96e3468e5462fee2f92a3",
        "m2_w": "c9552530ee785645c27dd9cdb85a743443335a089069cbe5c76067f8df0337fe",
        "m1_b": "7c8743535a263c93c9576f79785f17af92efa08c05af76812d1c849491901ecc",
        "m2_b": "d0ed21a38f3d78d4707f5bce5a3b951986b776faf59b7c2123abfe837b8b0258",
    },
    ("200-60-40", "1,1"): {
        "d_weights": "65b60494a0253eb04bfc345854ad7106baab505c24382796170570dbf22368e7",
        "d_biases": "df12e86ff5750d0eadd3e6deb0dde6d68033b2e1b9ad77e902de8485651476a4",
        "objective": "301.7108943300863",
        "weights": "59aba8dfe48d5b91477febfeba9a422d7f28c78ee9ca5f29091767f67749d5bd",
        "biases": "f8cbe3f3b7f5ba163b780cb5e59b223aecf35549898774bad8dbaac0c79e3ad2",
        "m1_w": "d058f7318b29a06a08ca32a5b2d134a3986bd080267859d2dc2092ec8c3015a4",
        "m2_w": "40c433aae6c4321f8144468d3ee9b741210bf33014664c7dda22d91ca95f9888",
        "m1_b": "2ebbfc80cff07c166170744df41f59cd82a1768d6ad40614c5ac56c06e3cacab",
        "m2_b": "a521a290a90c8dbf76b9a4d025a84614f1853d57f37715b3fdd04ca98f76a77b",
    },
}


@pytest.mark.parametrize("layout, intra", list(MSTEP_PINS))
def test_pinned_gradient_and_steps_across_chunks(layout, intra):
    # OpenBLAS splits these products by its thread count, and the split
    # changes their bits, so the digests are taken at one BLAS thread in a
    # fresh interpreter.
    tests = Path(__file__).resolve().parent
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([str(tests.parent / "src"), str(tests)]))
    script = ("import json; from test_optim import mstep_digests; "
              f"print(json.dumps(mstep_digests({layout!r}, {intra!r})))")
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, check=True)
    assert json.loads(done.stdout) == MSTEP_PINS[layout, intra]
