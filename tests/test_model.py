"""Model heads: hand-computed forwards, probability invariants, the
outlier verdict rule, and checkpoint persistence."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from openset_ssl import autodiff as ad
from openset_ssl.autodiff import Tensor
from openset_ssl.errors import DimensionError, ParseError
from openset_ssl.evaluation import OUTLIER, predict_open
from openset_ssl.model import (
    ModelParams,
    classify_closed,
    feature_extract,
    init_params,
    load_checkpoint,
    ova_probs,
    save_checkpoint,
)


def zeroed(d_in, hidden, k):
    params = init_params(d_in, hidden, k, np.random.default_rng(0))
    for t in params.parameters():
        t.data[:] = 0.0
    return params


class TestFeatureExtract:
    def test_zero_depth_is_identity(self):
        params = init_params(3, (), 2, np.random.default_rng(0))
        x = np.random.default_rng(1).normal(size=(4, 3))
        out = feature_extract(params, x)
        np.testing.assert_array_equal(out.data, x)

    def test_single_layer_hand_value(self):
        # one extractor layer means no activation at all
        params = zeroed(2, (2,), 2)
        params.extractor[0][0].data[:] = [[1.0, 2.0], [3.0, 4.0]]
        params.extractor[0][1].data[:] = [0.5, -1.0]
        out = feature_extract(params, np.array([[1.0, 1.0]]))
        np.testing.assert_allclose(out.data, [[4.5, 5.0]])

    def test_relu_applies_between_layers_only(self):
        params = zeroed(2, (2, 2), 2)
        params.extractor[0][0].data[:] = np.eye(2)
        params.extractor[1][0].data[:] = np.eye(2)
        params.extractor[1][1].data[:] = [-5.0, -5.0]
        out = feature_extract(params, np.array([[-3.0, 2.0]]))
        # first layer output (-3, 2) is rectified to (0, 2); the last
        # layer's negative outputs pass through unrectified
        np.testing.assert_allclose(out.data, [[-5.0, -3.0]])

    def test_input_dimension_checked(self):
        params = init_params(3, (4,), 2, np.random.default_rng(0))
        with pytest.raises(DimensionError):
            feature_extract(params, np.ones((2, 5)))


class TestHeads:
    def test_zero_weights_give_uniform_probs(self):
        params = zeroed(3, (4,), 5)
        x = np.random.default_rng(2).normal(size=(6, 3))
        features = feature_extract(params, x)
        closed = classify_closed(params, features).data
        np.testing.assert_allclose(closed, np.full((6, 5), 0.2), atol=1e-15)
        ova = ova_probs(params, features).data
        np.testing.assert_allclose(ova, np.full((6, 5, 2), 0.5), atol=1e-15)

    def test_closed_head_crafted_logits(self):
        params = zeroed(2, (), 2)
        params.closed_b.data[:] = [math.log(3.0), 0.0]
        closed = classify_closed(params, feature_extract(params, np.zeros((1, 2)))).data
        np.testing.assert_allclose(closed, [[0.75, 0.25]], rtol=1e-14)

    def test_ova_single_class_crafted_logits(self):
        params = zeroed(2, (), 1)
        params.ova_b.data[:] = [0.0, math.log(3.0)]
        ova = ova_probs(params, feature_extract(params, np.zeros((1, 2)))).data
        np.testing.assert_allclose(ova, [[[0.25, 0.75]]], rtol=1e-14)

    def test_ova_column_layout(self):
        # sub-classifier j must read columns 2j and 2j+1
        params = zeroed(1, (), 3)
        params.ova_b.data[:] = [0.0, 0.0, math.log(9.0), 0.0, 0.0, 0.0]
        ova = ova_probs(params, feature_extract(params, np.zeros((1, 1)))).data
        np.testing.assert_allclose(ova[0, 1], [0.9, 0.1], rtol=1e-12)
        np.testing.assert_allclose(ova[0, 0], [0.5, 0.5], atol=1e-15)

    @settings(max_examples=50)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 6), st.integers(1, 5))
    def test_ova_rows_sum_to_one(self, seed, batch, k):
        rng = np.random.default_rng(seed)
        params = init_params(3, (4,), k, rng)
        ova = ova_probs(params, feature_extract(params, rng.normal(size=(batch, 3)))).data
        np.testing.assert_allclose(ova.sum(axis=2), 1.0, atol=1e-9)

    @settings(max_examples=30)
    @given(st.integers(0, 2**32 - 1), st.floats(0.1, 50.0))
    def test_closed_argmax_invariant_under_positive_scaling(self, seed, scale):
        rng = np.random.default_rng(seed)
        params = init_params(3, (), 4, rng)
        x = rng.normal(size=(8, 3))
        before = classify_closed(params, feature_extract(params, x)).data.argmax(axis=1)
        params.closed_w.data *= scale
        params.closed_b.data *= scale
        after = classify_closed(params, feature_extract(params, x)).data.argmax(axis=1)
        np.testing.assert_array_equal(before, after)


class TestPredictOpen:
    def test_boundary_is_inlier(self):
        # zero weights put every inlier probability at exactly 0.5,
        # which the strict < 0.5 rule keeps as an inlier
        params = zeroed(2, (), 3)
        pred = predict_open(params, np.random.default_rng(3).normal(size=(5, 2)))
        np.testing.assert_array_equal(pred.inlier_prob, np.full(5, 0.5))
        np.testing.assert_array_equal(pred.closed_label, np.zeros(5))  # tie goes to class 0
        np.testing.assert_array_equal(pred.verdict, np.zeros(5))

    def test_just_below_boundary_is_outlier(self):
        params = zeroed(1, (), 2)
        params.closed_b.data[:] = [1.0, 0.0]  # always predict class 0
        params.ova_b.data[:] = [math.log(0.49 / 0.51), 0.0, 0.0, 0.0]
        pred = predict_open(params, np.zeros((3, 1)))
        assert pred.inlier_prob[0] == pytest.approx(0.49, abs=1e-12)
        np.testing.assert_array_equal(pred.verdict, np.full(3, OUTLIER))

    def test_verdict_monotone_in_inlier_prob(self):
        # for a fixed predicted class, lowering the inlier probability
        # can only flip inlier -> outlier, never back
        params = zeroed(1, (), 2)
        params.closed_b.data[:] = [1.0, 0.0]
        verdicts = []
        for logit in (2.0, 0.5, 0.0, -0.5, -2.0):
            params.ova_b.data[:] = [logit, 0.0, 0.0, 0.0]
            verdicts.append(predict_open(params, np.zeros((1, 1))).verdict[0])
        flips = [int(v == OUTLIER) for v in verdicts]
        assert flips == sorted(flips)

    def test_uses_input_as_given(self):
        rng = np.random.default_rng(4)
        params = init_params(3, (8,), 2, rng)
        x = rng.normal(size=(4, 3))
        a = predict_open(params, x)
        b = predict_open(params, x)
        np.testing.assert_array_equal(a.inlier_prob, b.inlier_prob)


class TestInit:
    def test_glorot_bounds_and_zero_biases(self):
        params = init_params(10, (20,), 4, np.random.default_rng(5))
        w, b = params.extractor[0]
        limit = math.sqrt(6.0 / (10 + 20))
        assert np.all(np.abs(w.data) <= limit)
        assert np.all(b.data == 0.0)
        head_limit = math.sqrt(6.0 / (20 + 4))
        assert np.all(np.abs(params.closed_w.data) <= head_limit)
        assert np.all(params.closed_b.data == 0.0)
        assert np.all(params.ova_b.data == 0.0)
        assert params.ova_w.shape == (20, 8)

    def test_deterministic_by_seed(self):
        a = init_params(5, (7, 3), 2, np.random.default_rng(42))
        b = init_params(5, (7, 3), 2, np.random.default_rng(42))
        for ta, tb in zip(a.parameters(), b.parameters()):
            assert ta.data.tobytes() == tb.data.tobytes()

    def test_parameters_all_require_grad(self):
        params = init_params(5, (7,), 2, np.random.default_rng(6))
        assert len(params.parameters()) == 6
        assert all(t.requires_grad for t in params.parameters())


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(7)
        params = init_params(6, (9, 4), 3, rng)
        config = {"lr": "0.03", "seed": "7"}
        path = tmp_path / "model.npz"
        save_checkpoint(path, params, config)
        loaded, loaded_config = load_checkpoint(path)
        assert loaded_config == config
        assert loaded.k_classes == 3 and loaded.hidden == (9, 4)
        for ta, tb in zip(params.parameters(), loaded.parameters()):
            assert ta.data.tobytes() == tb.data.tobytes()

    def test_roundtrip_zero_depth(self, tmp_path):
        params = init_params(4, (), 2, np.random.default_rng(8))
        path = tmp_path / "model.npz"
        save_checkpoint(path, params)
        loaded, config = load_checkpoint(path)
        assert config == {} and loaded.hidden == ()
        assert loaded.d_in == 4

    def test_save_load_save_is_identical(self, tmp_path):
        params = init_params(4, (5,), 2, np.random.default_rng(9))
        save_checkpoint(tmp_path / "a.npz", params, {"k": "v"})
        loaded, config = load_checkpoint(tmp_path / "a.npz")
        save_checkpoint(tmp_path / "b.npz", loaded, config)
        reloaded, _ = load_checkpoint(tmp_path / "b.npz")
        for ta, tb in zip(loaded.parameters(), reloaded.parameters()):
            assert ta.data.tobytes() == tb.data.tobytes()

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "other.npz"
        np.savez(path, stuff=np.ones(3))
        with pytest.raises(ParseError):
            load_checkpoint(path)

    def test_loaded_params_are_trainable(self, tmp_path):
        params = init_params(3, (4,), 2, np.random.default_rng(10))
        save_checkpoint(tmp_path / "m.npz", params)
        loaded, _ = load_checkpoint(tmp_path / "m.npz")
        out = ad.tensor_sum(classify_closed(loaded, feature_extract(loaded, np.ones((2, 3)))))
        out.backward()
        assert loaded.closed_w.grad is not None


def test_copy_is_deep():
    params = init_params(3, (4,), 2, np.random.default_rng(11))
    dup = params.copy()
    dup.closed_w.data[:] = 0.0
    assert not np.all(params.closed_w.data == 0.0)
