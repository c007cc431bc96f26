"""Autodiff core: forward values against scalar references, backward
against central finite differences, and structural invariants. The ops
are the generic reference ops of reference_ops, recorded through the
package's make_node."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import reference_ops as ref
from openset_ssl import autodiff as ad
from openset_ssl.autodiff import Tensor
from openset_ssl.errors import DimensionError, NumericError

EPS = 1e-5


def finite_diff(loss_fn, tensor, eps=EPS):
    """Central-difference gradient of a scalar loss w.r.t. one tensor."""
    grad = np.zeros_like(tensor.data)
    flat = tensor.data.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        up = float(loss_fn().data)
        flat[i] = orig - eps
        down = float(loss_fn().data)
        flat[i] = orig
        gflat[i] = (up - down) / (2 * eps)
    return grad


class TestMatmul:
    def test_identity(self):
        a = Tensor(np.arange(6.0).reshape(2, 3))
        out = ref.matmul(a, Tensor(np.eye(3)))
        np.testing.assert_array_equal(out.data, a.data)

    def test_hand_value(self):
        out = ref.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
        assert out.item() == 11.0

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            ref.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))

    def test_gradient_matches_finite_difference(self):
        rng = np.random.default_rng(0)
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)

        def loss():
            return ref.tensor_sum(ref.matmul(a, b))

        loss().backward()
        np.testing.assert_allclose(a.grad, finite_diff(loss, a), atol=1e-8)
        # d sum(a@b) / da_ij = sum_k b_jk, independent of i
        np.testing.assert_allclose(a.grad, np.tile(b.data.sum(axis=1), (3, 1)), atol=1e-12)
        a.zero_grad()

    def test_grad_check_helper(self):
        rng = np.random.default_rng(1)
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        err = ad.grad_check(lambda: ref.tensor_sum(ref.matmul(a, b)), [a, b])
        assert err <= 1e-8


class TestElementwise:
    def test_relu_values_and_subgradient(self):
        t = Tensor([-1.0, 0.0, 2.0], requires_grad=True)
        out = ref.relu(t)
        np.testing.assert_array_equal(out.data, [0.0, 0.0, 2.0])
        ref.tensor_sum(out).backward()
        # subgradient at exactly 0 is taken as 0
        np.testing.assert_array_equal(t.grad, [0.0, 0.0, 1.0])

    def test_square(self):
        t = Tensor([3.0], requires_grad=True)
        out = ref.square(t)
        assert out.data[0] == 9.0
        ref.tensor_sum(out).backward()
        assert t.grad[0] == 6.0

    def test_mean_gradient_is_uniform(self):
        t = Tensor(np.arange(8.0), requires_grad=True)
        ref.mean(t).backward()
        np.testing.assert_allclose(t.grad, np.full(8, 1.0 / 8.0))
        numeric = finite_diff(lambda: ref.mean(t), t)
        np.testing.assert_allclose(t.grad, numeric, atol=1e-9)

    def test_log_clamps_below_eps(self):
        t = Tensor([0.0, 1e-15, 0.5], requires_grad=True)
        out = ref.log(t)
        assert out.data[0] == out.data[1] == math.log(1e-12)
        assert out.data[2] == pytest.approx(math.log(0.5))
        ref.tensor_sum(out).backward()
        # no gradient through the clamped branch
        assert t.grad[0] == 0.0 and t.grad[1] == 0.0
        assert t.grad[2] == pytest.approx(2.0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            ref.multiply(Tensor(np.ones(3)), Tensor(np.ones(4)))
        with pytest.raises(DimensionError):
            ref.subtract(Tensor(np.ones((2, 2))), Tensor(np.ones(2)))

    def test_bias_broadcast_gradient(self):
        rng = np.random.default_rng(2)
        x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=3), requires_grad=True)
        err = ad.grad_check(lambda: ref.tensor_sum(ref.square(ref.add(x, b))), [x, b])
        assert err <= 1e-8


class TestSoftmax:
    def test_two_equal_logits(self):
        out = ref.softmax(Tensor([[0.0, 0.0]]))
        np.testing.assert_allclose(out.data, [[0.5, 0.5]], atol=1e-15)

    def test_huge_logit_stability(self):
        out = ref.softmax(Tensor([[1000.0, 1000.0]]))
        assert np.all(np.isfinite(out.data))
        np.testing.assert_allclose(out.data, [[0.5, 0.5]], atol=1e-15)

    def test_against_scalar_reference(self):
        logits = [1.0, 2.0, 3.0]
        out = ref.softmax(Tensor([logits])).data[0]
        denom = sum(math.exp(v) for v in logits)
        expected = [math.exp(v) / denom for v in logits]
        np.testing.assert_allclose(out, expected, rtol=1e-14)

    def test_jacobian_against_finite_difference(self):
        rng = np.random.default_rng(3)
        t = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        w = rng.normal(size=(4, 5))  # fixed projection to a scalar

        def loss():
            return ref.tensor_sum(ref.multiply(ref.softmax(t, axis=1), Tensor(w)))

        err = ad.grad_check(loss, [t])
        assert err <= 1e-8

    def test_single_column_rejected(self):
        with pytest.raises(DimensionError):
            ref.softmax(Tensor(np.ones((3, 1))))

    @given(
        hnp.arrays(
            np.float64,
            hnp.array_shapes(min_dims=2, max_dims=2, min_side=2, max_side=6),
            elements=st.floats(-300, 300),
        )
    )
    def test_rows_sum_to_one(self, logits):
        out = ref.softmax(Tensor(logits), axis=1)
        np.testing.assert_allclose(out.data.sum(axis=1), 1.0, atol=1e-12)


def _pair_cases():
    """(name, logits [B, K, 2], output gradient) for the pair softmax."""
    rng = np.random.default_rng(5)
    cases = [(f"random-{b}x{k}", rng.normal(scale=3.0, size=(b, k, 2)), rng.normal(size=(b, k, 2)))
             for b, k in ((1, 1), (64, 4), (128, 4), (7, 9))]
    cases.append(("equal", np.full((3, 4, 2), 1.25), rng.normal(size=(3, 4, 2))))
    gap = rng.normal(size=(4, 3, 2))
    gap[:, :, 1] = gap[:, :, 0] - 800.0  # exp(-800) underflows to 0
    gap[1] = gap[1, :, ::-1]
    cases.append(("gap800", gap, rng.normal(size=(4, 3, 2))))
    g = rng.normal(size=(5, 4, 2))
    g[0] = -0.0
    g[1, :, 0] = -0.0
    g[2, 1, 1] = -0.0
    cases.append(("negzero-grad", rng.normal(size=(5, 4, 2)), g))
    z = rng.normal(size=(4, 4, 2))
    z[2, 1, 0] = np.nan
    z[3, :, 1] = np.nan
    cases.append(("nan-row", z, rng.normal(size=(4, 4, 2))))
    cases.append(("empty", np.empty((0, 4, 2)), np.empty((0, 4, 2))))
    return cases


class TestPairSoftmax:
    """The one-vs-all head's pair softmax against the reference's numpy
    reductions over the last axis: equal bytes, forward and backward."""

    @pytest.mark.parametrize("z, g", [c[1:] for c in _pair_cases()], ids=[c[0] for c in _pair_cases()])
    def test_bit_identical_to_reference(self, z, g):
        s = ad.pair_softmax_data(z)
        s_ref = ref.softmax_data(z)
        np.testing.assert_array_equal(np.isnan(s), np.isnan(s_ref))
        assert s.tobytes() == s_ref.tobytes()
        dz = ad.pair_softmax_grad(s, g)
        dz_ref = ref.softmax_grad(s_ref, g)
        np.testing.assert_array_equal(np.isnan(dz), np.isnan(dz_ref))
        assert dz.tobytes() == dz_ref.tobytes()

    @given(
        hnp.arrays(
            np.float64,
            st.tuples(st.integers(0, 9), st.integers(1, 5), st.just(2)),
            elements=st.floats(-1000, 1000, allow_subnormal=True),
        )
    )
    def test_bit_identical_on_arbitrary_logits(self, z):
        g = np.cos(np.arange(z.size, dtype=np.float64)).reshape(z.shape)
        s = ad.pair_softmax_data(z)
        assert s.tobytes() == ref.softmax_data(z).tobytes()
        assert ad.pair_softmax_grad(s, g).tobytes() == ref.softmax_grad(s, g).tobytes()

    def test_closed_softmax_matches_reference(self):
        z = np.random.default_rng(6).normal(size=(32, 5))
        g = np.random.default_rng(7).normal(size=(32, 5))
        s = ad.softmax_data(z)
        assert s.tobytes() == ref.softmax_data(z).tobytes()
        assert ad.softmax_grad(s, g).tobytes() == ref.softmax_grad(s, g).tobytes()


class TestGraph:
    def test_shared_subexpression_accumulates(self):
        x = Tensor([1.5], requires_grad=True)
        ref.tensor_sum(ref.add(x, x)).backward()
        assert x.grad[0] == 2.0

    def test_diamond_graph(self):
        # y = x*x + x*x reuses the same product node twice
        x = Tensor([2.0], requires_grad=True)
        prod = ref.multiply(x, x)
        ref.tensor_sum(ref.add(prod, prod)).backward()
        assert x.grad[0] == pytest.approx(8.0)

    def test_backward_needs_scalar(self):
        t = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(DimensionError):
            ref.add(t, 1.0).backward()

    @staticmethod
    def consumed_graph():
        """out = (a*b)^2 after its backward: leaves a, b, interior mid, out."""
        a = Tensor([1.0], requires_grad=True)
        b = Tensor([2.0], requires_grad=True)
        mid = ref.multiply(a, b)
        out = ref.tensor_sum(ref.square(mid))
        out.backward()
        return a, b, mid, out

    def test_backward_grads_leaves_and_releases_interior_nodes(self):
        a, b, mid, out = self.consumed_graph()
        assert (a.grad[0], b.grad[0]) == (8.0, 4.0)  # 2ab * b, 2ab * a
        for t in (mid, out):
            assert t.grad is None and t._backward is None
            assert t._parents  # data and parents stay
        assert (mid.data[0], out.data[()]) == (2.0, 4.0)

    def test_second_backward_on_consumed_root_raises(self):
        a, b, _, out = self.consumed_graph()
        with pytest.raises(RuntimeError, match="already consumed"):
            out.backward()
        assert (a.grad[0], b.grad[0]) == (8.0, 4.0)

    def test_new_root_over_consumed_node_raises(self):
        a, b, mid, _ = self.consumed_graph()
        root = ref.tensor_sum(ref.add(mid, a))
        with pytest.raises(RuntimeError, match="already consumed"):
            root.backward()
        assert (a.grad[0], b.grad[0]) == (8.0, 4.0)

    def test_no_grad_disables_recording(self):
        a = Tensor([1.0], requires_grad=True)
        with ad.no_grad():
            out = ref.square(a)
        assert not out.requires_grad and out._parents == ()

    def test_constants_stay_out_of_graph(self):
        out = ref.square(Tensor([2.0]))
        assert not out.requires_grad

    def test_forward_backward_bit_deterministic(self):
        rng = np.random.default_rng(4)
        data = rng.normal(size=(6, 6))
        results = []
        for _ in range(2):
            t = Tensor(data.copy(), requires_grad=True)
            loss = ref.tensor_sum(ref.square(ref.softmax(ref.relu(t), axis=1)))
            loss.backward()
            results.append((loss.data.copy(), t.grad.copy()))
        assert results[0][0].tobytes() == results[1][0].tobytes()
        assert results[0][1].tobytes() == results[1][1].tobytes()

    def test_ops_allocate_fresh_outputs(self):
        t = Tensor(np.ones(3), requires_grad=True)
        out = ref.add(t, 0.0)
        out.data[0] = 99.0
        assert t.data[0] == 1.0


class TestReshapePick:
    def test_reshape_roundtrip_gradient(self):
        t = Tensor(np.arange(6.0), requires_grad=True)
        err = ad.grad_check(lambda: ref.tensor_sum(ref.square(ref.reshape(t, (2, 3)))), [t])
        assert err <= 1e-8

    def test_reshape_size_mismatch(self):
        with pytest.raises(DimensionError):
            ref.reshape(Tensor(np.ones(5)), (2, 3))

    def test_pick_selects_and_scatters(self):
        t = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        idx = np.array([2, 0])
        out = ref.pick(t, idx)
        np.testing.assert_array_equal(out.data, [2.0, 3.0])
        ref.tensor_sum(out).backward()
        expected = np.zeros((2, 3))
        expected[0, 2] = expected[1, 0] = 1.0
        np.testing.assert_array_equal(t.grad, expected)

    def test_pick_out_of_range(self):
        with pytest.raises(DimensionError):
            ref.pick(Tensor(np.ones((2, 3))), np.array([0, 3]))


class TestGradCheck:
    def test_quadratic_is_tight(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.normal(size=7), requires_grad=True)
        err = ad.grad_check(lambda: ref.multiply(ref.tensor_sum(ref.square(x)), 0.5), [x])
        assert err <= 1e-8

    def test_nonfinite_loss_raises(self):
        x = Tensor([1.0], requires_grad=True)
        with pytest.raises(NumericError):
            ad.grad_check(lambda: ref.multiply(ref.tensor_sum(x), math.inf), [x])


@settings(max_examples=50)
@given(
    hnp.arrays(np.float64, st.integers(1, 20), elements=st.floats(-100, 100)),
    hnp.arrays(np.float64, st.integers(1, 20), elements=st.floats(-100, 100)),
)
def test_addition_commutes(a, b):
    if a.shape != b.shape:
        return
    out1 = ref.add(Tensor(a), Tensor(b))
    out2 = ref.add(Tensor(b), Tensor(a))
    np.testing.assert_array_equal(out1.data, out2.data)
