"""Loss oracles: hand-crafted probability setups with values derived by
scalar arithmetic, plus finite-difference gradient checks and the
composition rules of the combined objective."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from openset_ssl.data import AugmentConfig
from openset_ssl.errors import ConfigError
from openset_ssl.losses import (
    LossBreakdown,
    consistency_from_views,
    fixmatch_from_views,
    loss_all,
    loss_cls,
    loss_em,
    loss_fixmatch,
    loss_ova,
    loss_socr,
)
from openset_ssl.model import init_params
from openset_ssl.trainer import TrainConfig
from oracles import grad_check


def zeroed(d_in, hidden, k):
    params = init_params(d_in, hidden, k, np.random.default_rng(0))
    for t in params.parameters():
        t.data[:] = 0.0
    return params


def random_setup(seed=0, b=8, d_in=4, k=3, hidden=(5,)):
    rng = np.random.default_rng(seed)
    params = init_params(d_in, hidden, k, rng)
    x = rng.normal(size=(b, d_in))
    y = rng.integers(0, k, size=b)
    u = rng.normal(size=(2 * b, d_in))
    return params, x, y, u


AUG = AugmentConfig(weak_noise_sigma=0.3, strong_noise_sigma=0.6, strong_mask_prob=0.2)


class TestLossCls:
    def test_uniform_model_gives_log_k(self):
        params = zeroed(3, (4,), 4)
        x = np.random.default_rng(1).normal(size=(6, 3))
        y = np.array([0, 1, 2, 3, 0, 1])
        assert loss_cls(params, x, y).item() == pytest.approx(math.log(4.0), abs=1e-12)

    def test_confident_correct_prediction_vanishes(self):
        params = zeroed(1, (), 3)
        params.closed_b.data[:] = [80.0, 0.0, 0.0]
        val = loss_cls(params, np.zeros((2, 1)), np.zeros(2, dtype=int)).item()
        assert 0.0 <= val <= 1e-9

    def test_against_scalar_reference(self):
        params, x, y, _ = random_setup(seed=2)
        # independent scalar path: raw logits through plain numpy, then
        # per-sample log-sum-exp arithmetic in python floats
        h = x @ params.extractor[0][0].data + params.extractor[0][1].data
        h = np.maximum(h, 0.0) if len(params.extractor) > 1 else h
        logits = h @ params.closed_w.data + params.closed_b.data
        expected = 0.0
        for i in range(len(x)):
            row = [float(v) for v in logits[i]]
            m = max(row)
            lse = m + math.log(sum(math.exp(v - m) for v in row))
            expected += lse - row[int(y[i])]
        expected /= len(x)
        assert loss_cls(params, x, y).item() == pytest.approx(expected, rel=1e-12)

    def test_label_out_of_range(self):
        params = zeroed(2, (), 3)
        with pytest.raises(ConfigError):
            loss_cls(params, np.zeros((1, 2)), np.array([3]))

    def test_gradient(self):
        params, x, y, _ = random_setup(seed=3)
        err = grad_check(lambda: loss_cls(params, x, y), params.parameters())
        assert err <= 1e-4


class TestLossOva:
    def test_uniform_model_gives_two_log_two(self):
        params = zeroed(4, (6,), 3)
        x = np.random.default_rng(4).normal(size=(5, 4))
        y = np.array([0, 1, 2, 0, 1])
        assert loss_ova(params, x, y).item() == pytest.approx(2.0 * math.log(2.0), abs=1e-9)

    def test_crafted_two_class_value(self):
        # p^0(inlier) = 0.9 for the true class, p^1(outlier) = 0.8
        params = zeroed(1, (), 2)
        params.ova_b.data[:] = [math.log(9.0), 0.0, 0.0, math.log(4.0)]
        val = loss_ova(params, np.zeros((1, 1)), np.array([0])).item()
        assert val == pytest.approx(-(math.log(0.9) + math.log(0.8)), abs=1e-12)

    def test_hardest_negative_selected(self):
        # class 1 is the weaker outlier detection (0.6 < 0.9), so it is the min
        params = zeroed(1, (), 3)
        params.ova_b.data[:] = [0.0, 0.0, 0.0, math.log(1.5), 0.0, math.log(9.0)]
        val = loss_ova(params, np.zeros((1, 1)), np.array([0])).item()
        assert val == pytest.approx(-(math.log(0.5) + math.log(0.6)), abs=1e-12)

    def test_gradient_reaches_only_selected_negative(self):
        params = zeroed(1, (), 3)
        params.ova_b.data[:] = [0.0, 0.0, 0.0, math.log(1.5), 0.0, math.log(9.0)]
        loss = loss_ova(params, np.zeros((1, 1)), np.array([0]))
        loss.backward()
        g = params.ova_b.grad
        assert np.any(g[2:4] != 0.0)   # selected negative (class 1)
        assert np.all(g[4:6] == 0.0)   # non-selected negative (class 2)

    def test_tie_goes_to_lowest_class_index(self):
        params = zeroed(1, (), 3)  # classes 1 and 2 perfectly tied
        loss = loss_ova(params, np.zeros((1, 1)), np.array([0]))
        loss.backward()
        g = params.ova_b.grad
        assert np.any(g[2:4] != 0.0) and np.all(g[4:6] == 0.0)

    def test_nonselected_perturbation_leaves_value_unchanged(self):
        params = zeroed(1, (), 3)
        params.ova_b.data[:] = [0.0, 0.0, 0.0, math.log(1.5), 0.0, math.log(9.0)]
        x, y = np.zeros((1, 1)), np.array([0])
        before = loss_ova(params, x, y).item()
        params.ova_b.data[4] += 1e-3  # still far from being the min
        params.ova_w.data[0, 5] -= 1e-3
        after = loss_ova(params, x, y).item()
        assert before == after

    def test_single_class_rejected(self):
        params = zeroed(2, (), 1)
        with pytest.raises(ConfigError):
            loss_ova(params, np.zeros((1, 2)), np.array([0]))

    def test_gradient(self):
        params, x, y, _ = random_setup(seed=5)
        err = grad_check(lambda: loss_ova(params, x, y), params.parameters())
        assert err <= 1e-4


class TestLossEm:
    def test_uniform_model_gives_k_log_two(self):
        for k in (2, 5):
            params = zeroed(3, (4,), k)
            u = np.random.default_rng(6).normal(size=(7, 3))
            assert loss_em(params, u).item() == pytest.approx(k * math.log(2.0), abs=1e-9)

    def test_crafted_two_head_value(self):
        # head 0 at (0.9, 0.1), head 1 at (0.5, 0.5)
        params = zeroed(1, (), 2)
        params.ova_b.data[:] = [math.log(9.0), 0.0, 0.0, 0.0]
        expected = -(0.9 * math.log(0.9) + 0.1 * math.log(0.1)) + math.log(2.0)
        assert loss_em(params, np.zeros((1, 1))).item() == pytest.approx(expected, abs=1e-12)

    def test_saturated_heads_vanish(self):
        params = zeroed(1, (), 2)
        big = math.log(1e12)
        params.ova_b.data[:] = [big, 0.0, 0.0, big]
        val = loss_em(params, np.zeros((3, 1))).item()
        assert 0.0 <= val <= 2 * 3e-11

    def test_empty_batch(self):
        params = zeroed(2, (), 2)
        assert loss_em(params, np.empty((0, 2))).item() == 0.0

    @settings(max_examples=30)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 5))
    def test_bounded_by_k_log_two(self, seed, k):
        rng = np.random.default_rng(seed)
        params = init_params(3, (4,), k, rng)
        u = rng.normal(size=(6, 3))
        val = loss_em(params, u).item()
        assert 0.0 <= val <= k * math.log(2.0) + 1e-12

    def test_gradient(self):
        params, _, _, u = random_setup(seed=7)
        err = grad_check(lambda: loss_em(params, u), params.parameters())
        assert err <= 1e-4


class TestConsistency:
    def test_crafted_single_class_value(self):
        # views produce (0.8, 0.2) and (0.6, 0.4): gap is 0.04 + 0.04
        params = zeroed(1, (), 1)
        params.ova_w.data[:] = [[1.0, 0.0]]
        v1 = np.array([[math.log(4.0)]])
        v2 = np.array([[math.log(1.5)]])
        val = consistency_from_views(params, v1, v2).item()
        assert val == pytest.approx(0.08, abs=1e-12)

    def test_zero_noise_views_give_exact_zero(self):
        params, _, _, u = random_setup(seed=8)
        aug = AugmentConfig(weak_noise_sigma=0.0, strong_noise_sigma=0.0, strong_mask_prob=0.0)
        assert loss_socr(params, u, aug, np.random.default_rng(0)).item() == 0.0

    def test_symmetric_in_views(self):
        params, _, _, u = random_setup(seed=9)
        rng = np.random.default_rng(1)
        v1 = u + 0.3 * rng.standard_normal(u.shape)
        v2 = u + 0.3 * rng.standard_normal(u.shape)
        assert consistency_from_views(params, v1, v2).item() == consistency_from_views(params, v2, v1).item()

    def test_closed_head_variant_differs(self):
        params, _, _, u = random_setup(seed=10)
        rng1, rng2 = np.random.default_rng(2), np.random.default_rng(2)
        ova_val = loss_socr(params, u, AUG, rng1, head="ova").item()
        closed_val = loss_socr(params, u, AUG, rng2, head="closed").item()
        assert ova_val != closed_val

    def test_unknown_head_rejected(self):
        params, _, _, u = random_setup(seed=11)
        with pytest.raises(ConfigError):
            consistency_from_views(params, u, u, head="logits")

    def test_empty_batch(self):
        params = zeroed(2, (), 2)
        assert loss_socr(params, np.empty((0, 2)), AUG, np.random.default_rng(0)).item() == 0.0

    def test_gradient_flows_through_both_views(self):
        params, _, _, u = random_setup(seed=12, b=4)
        err = grad_check(lambda: loss_socr(params, u, AUG, np.random.default_rng(3)), params.parameters())
        assert err <= 1e-4

    def test_gradient_closed_head(self):
        params, _, _, u = random_setup(seed=13, b=4)
        err = grad_check(
            lambda: loss_socr(params, u, AUG, np.random.default_rng(4), head="closed"), params.parameters()
        )
        assert err <= 1e-4


class TestFixmatch:
    def test_uniform_model_below_threshold(self):
        params = zeroed(2, (), 4)
        i_batch = np.random.default_rng(14).normal(size=(6, 2))
        loss, count = loss_fixmatch(params, i_batch, AUG, np.random.default_rng(0), tau=1.0)
        assert loss.item() == 0.0 and count == 0

    def test_crafted_single_sample(self):
        # weak view is confident at 0.99, strong view sits at 0.5
        params = zeroed(1, (), 2)
        params.closed_w.data[:] = [[math.log(99.0), 0.0]]
        loss, count = fixmatch_from_views(params, np.array([[1.0]]), np.array([[0.0]]), tau=0.95)
        assert count == 1
        assert loss.item() == pytest.approx(math.log(2.0), abs=1e-12)

    def test_normalized_by_full_batch(self):
        params = zeroed(1, (), 2)
        params.closed_w.data[:] = [[math.log(99.0), 0.0]]
        weak = np.array([[1.0], [0.0]])    # second sample is at 0.5 < tau
        strong = np.zeros((2, 1))
        loss, count = fixmatch_from_views(params, weak, strong, tau=0.95)
        assert count == 1
        assert loss.item() == pytest.approx(math.log(2.0) / 2.0, abs=1e-12)

    def test_monotone_in_tau(self):
        params, _, _, u = random_setup(seed=15)
        weak = u + 0.1
        strong = u - 0.1
        values = [fixmatch_from_views(params, weak, strong, tau)[0].item() for tau in (0.3, 0.5, 0.7, 0.9, 1.0)]
        assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))

    def test_pseudo_labels_are_detached(self):
        params = zeroed(1, (), 2)
        params.closed_w.data[:] = [[math.log(99.0), 0.0]]
        loss, _ = fixmatch_from_views(params, np.array([[1.0]]), np.array([[0.0]]), tau=0.5)
        loss.backward()
        # gradient exists (strong view path) and is finite
        assert np.all(np.isfinite(params.closed_w.grad))

    def test_empty_batch(self):
        params = zeroed(2, (), 2)
        loss, count = loss_fixmatch(params, np.empty((0, 2)), AUG, np.random.default_rng(0), tau=0.95)
        assert loss.item() == 0.0 and count == 0

    def test_invalid_tau(self):
        params = zeroed(2, (), 2)
        with pytest.raises(ConfigError):
            fixmatch_from_views(params, np.zeros((1, 2)), np.zeros((1, 2)), tau=0.0)

    def test_gradient(self):
        params, _, _, u = random_setup(seed=16, b=4)

        def loss_fn():
            loss, _ = loss_fixmatch(params, u, AUG, np.random.default_rng(5), tau=0.5)
            return loss

        err = grad_check(loss_fn, params.parameters())
        assert err <= 1e-4


class TestLossAll:
    def cfg(self, **kw):
        base = dict(lam_em=0.1, lam_oc=0.5, lam_fm=1.0, tau=0.6, e_fix=3, e_max=5, augment=AUG)
        base.update(kw)
        return TrainConfig(**base)

    def test_matches_manual_recombination(self):
        params, x, y, u = random_setup(seed=17)
        i_batch = np.random.default_rng(18).normal(size=(6, 4))
        cfg = self.cfg()
        total, bd = loss_all(params, x, y, u, i_batch, cfg, np.random.default_rng(9), epoch=4)

        rng = np.random.default_rng(9)  # replay the same augmentation stream
        manual = loss_cls(params, x, y).item() + loss_ova(params, x, y).item()
        manual += cfg.lam_em * loss_em(params, u).item()
        manual += cfg.lam_oc * loss_socr(params, u, cfg.augment, rng).item()
        fm, count = loss_fixmatch(params, i_batch, cfg.augment, rng, cfg.tau)
        manual += cfg.lam_fm * fm.item()
        assert bd.l_all == pytest.approx(manual, abs=1e-9)
        assert bd.fm_mask_count == count
        assert total.item() == bd.l_all

    def test_breakdown_identities(self):
        params, x, y, u = random_setup(seed=19)
        cfg = self.cfg()
        _, bd = loss_all(params, x, y, u, u[:4], cfg, np.random.default_rng(1), epoch=5)
        assert bd.l_sup == pytest.approx(bd.l_cls + bd.l_ova, abs=1e-9)
        recombined = bd.l_sup + cfg.lam_em * bd.l_em + cfg.lam_oc * bd.l_oc + cfg.lam_fm * bd.l_fm
        assert bd.l_all == pytest.approx(recombined, abs=1e-9)

    def test_before_warmup_ignores_pseudo_batch(self):
        params, x, y, u = random_setup(seed=20)
        cfg = self.cfg()
        rng_a = np.random.default_rng(2)
        rng_b = np.random.default_rng(2)
        total_a, bd_a = loss_all(params, x, y, u, u[:4], cfg, rng_a, epoch=3)
        total_b, bd_b = loss_all(params, x, y, u, u[10:12], cfg, rng_b, epoch=3)
        assert total_a.item() == total_b.item()
        assert bd_a.l_fm == bd_b.l_fm == 0.0 and bd_a.fm_mask_count == 0

    def test_zero_weights_reduce_to_supervised(self):
        params, x, y, u = random_setup(seed=21)
        cfg = self.cfg(lam_em=0.0, lam_oc=0.0, lam_fm=0.0)
        rng = np.random.default_rng(3)
        total, bd = loss_all(params, x, y, u, u[:2], cfg, rng, epoch=5)
        assert bd.l_all == bd.l_sup
        assert bd.l_em == bd.l_oc == bd.l_fm == 0.0
        # skipped components must not consume the augmentation stream
        assert rng.integers(0, 1 << 30) == np.random.default_rng(3).integers(0, 1 << 30)

    def test_empty_pseudo_batch_contributes_nothing(self):
        params, x, y, u = random_setup(seed=22)
        cfg = self.cfg()
        _, bd = loss_all(params, x, y, u, np.empty((0, 4)), cfg, np.random.default_rng(4), epoch=5)
        assert bd.l_fm == 0.0 and bd.fm_mask_count == 0

    def test_combined_gradient(self):
        params, x, y, u = random_setup(seed=23, b=4)
        cfg = self.cfg()

        def loss_fn():
            total, _ = loss_all(params, x, y, u, u[:4], cfg, np.random.default_rng(6), epoch=4)
            return total

        err = grad_check(loss_fn, params.parameters())
        assert err <= 1e-4


@settings(max_examples=25)
@given(st.integers(0, 2**32 - 1))
def test_losses_are_nonnegative(seed):
    params, x, y, u = random_setup(seed=seed, b=4)
    assert loss_cls(params, x, y).item() >= 0.0
    assert loss_ova(params, x, y).item() >= 0.0
    assert loss_em(params, u).item() >= 0.0
    assert loss_socr(params, u, AUG, np.random.default_rng(seed)).item() >= 0.0
