"""Training loop: optimizer recurrence, candidate-set gating, epoch
accounting, determinism, and the supervised reduction."""

import re
from dataclasses import fields, replace
from typing import get_type_hints

import numpy as np
import pytest

import openset_ssl.trainer as trainer_mod
import reference_ops as ref
from openset_ssl.data import NO_LABEL, TAG_SEEN_OUTLIER, GenConfig, gen_synthetic, sample_batches
from openset_ssl.errors import ConfigError, NumericError
from openset_ssl.losses import loss_cls, loss_ova
from openset_ssl.model import init_params
from openset_ssl.trainer import TrainConfig, gather_grads, select_pseudo_inliers, sgd_step, train
from oracles import closed, ova

GEN = GenConfig(
    k_classes=3,
    n_seen_outlier=1,
    n_unseen_outlier=1,
    d_in=4,
    train_per_class=30,
    labels_per_class=5,
    unlabeled_per_outlier=25,
    test_per_class=10,
    test_per_outlier=10,
    cluster_sigma=0.8,
    min_center_distance=3.0,
    center_box=4.0,
)

FAST = TrainConfig(
    b=8,
    mu=2,
    e_fix=1,
    e_max=2,
    i_max=5,
    seed=3,
    hidden=(8,),
    eval_every=100,
    weak_noise_sigma=0.3,
    strong_noise_sigma=0.6,
    strong_mask_prob=0.2,
)


def dataset(seed=0):
    return gen_synthetic(GEN, seed=seed)


def zeroed(d_in, hidden, k):
    params = init_params(d_in, hidden, k, np.random.default_rng(0))
    for t in params.parameters():
        t.data[...] = 0.0
    return params


def params_equal(a, b):
    return all(np.array_equal(x.data, y.data) for x, y in zip(a.parameters(), b.parameters()))


class TestSelectPseudoInliers:
    def test_zero_weights_accept_everything(self):
        # uniform sub-classifiers sit exactly on the 0.5 boundary, which counts as inlier
        params = zeroed(3, (), 2)
        x = np.random.default_rng(0).normal(size=(7, 3))
        np.testing.assert_array_equal(select_pseudo_inliers(params, x), np.arange(7))

    def test_crafted_rejection(self):
        # class 0 wins the closed head everywhere (ties resolve to index 0);
        # its sub-classifier puts 0.25 on inlier, so everything is rejected
        params = zeroed(3, (), 2)
        params.ova_b.data[1] = np.log(3.0)
        x = np.random.default_rng(1).normal(size=(5, 3))
        assert select_pseudo_inliers(params, x).size == 0

    def test_mixed(self):
        # closed head splits on the sign of x0; class 1's sub-classifier rejects
        params = zeroed(1, (), 2)
        params.closed_w.data[0] = [-1.0, 1.0]
        params.ova_b.data[3] = np.log(3.0)
        x = np.array([[-2.0], [2.0], [-1.0], [3.0]])
        np.testing.assert_array_equal(select_pseudo_inliers(params, x), [0, 2])


class TestSgdStep:
    def test_zero_momentum_is_plain_sgd(self):
        p = np.array([1.0, -2.0])
        v = np.zeros(2)
        sgd_step(p, np.array([0.5, 0.25]), v, lr=0.1, momentum=0.0)
        np.testing.assert_allclose(p, [1.0 - 0.05, -2.0 - 0.025], rtol=0, atol=0)

    def test_two_step_recurrence(self):
        # hand-unrolled: v1=0.5, p1=1-0.1*(0.5+0.9*0.5)=0.905
        #                v2=0.95, p2=0.905-0.1*(0.5+0.9*0.95)=0.7695
        p = np.array([1.0])
        v = np.zeros(1)
        g = np.array([0.5])
        sgd_step(p, g, v, lr=0.1, momentum=0.9)
        np.testing.assert_allclose(p, [0.905], rtol=0, atol=1e-15)
        np.testing.assert_allclose(v, [0.5], rtol=0, atol=0)
        sgd_step(p, g, v, lr=0.1, momentum=0.9)
        np.testing.assert_allclose(p, [0.7695], rtol=0, atol=1e-15)
        np.testing.assert_allclose(v, [0.95], rtol=0, atol=1e-15)
        np.testing.assert_array_equal(g, [0.5])  # the gradient is only read

    def test_zero_gradient_with_fresh_velocity_is_noop(self):
        p = np.array([3.0])
        sgd_step(p, np.zeros(1), np.zeros(1), lr=0.1, momentum=0.9)
        np.testing.assert_array_equal(p, [3.0])

    def test_matches_per_tensor_update_bit_for_bit(self):
        # the flat update repeats v *= m; v += g; p -= lr * (g + m * v)
        rng = np.random.default_rng(0)
        p, g, v = rng.normal(size=(3, 50))
        g[:5] = -0.0
        want_p, want_v = p.copy(), v.copy()
        want_v *= 0.9
        want_v += g
        want_p -= 0.03 * (g + 0.9 * want_v)
        sgd_step(p, g, v, lr=0.03, momentum=0.9)
        assert p.tobytes() == want_p.tobytes()
        assert v.tobytes() == want_v.tobytes()

    def test_nonfinite_gradient_mutates_nothing(self):
        p = np.array([1.0, 2.0])
        v = np.array([0.3, 0.4])
        before = p.tobytes(), v.tobytes()
        for bad in (np.nan, np.inf):
            with pytest.raises(NumericError):
                sgd_step(p, np.array([0.1, bad]), v, lr=0.1, momentum=0.9)
            # the check runs before any update, so even the finite entry is untouched
            assert (p.tobytes(), v.tobytes()) == before

    def test_missing_gradient_rejected(self):
        params = init_params(3, (4,), 2, np.random.default_rng(0))
        tensors = params.parameters()
        for t in tensors:
            t.grad = np.ones_like(t.data)
        tensors[2].grad = None
        with pytest.raises(NumericError, match="missing gradient"):
            gather_grads(tensors, np.empty_like(params.flat))

    def test_gather_keeps_order_and_negative_zero(self):
        params = init_params(3, (4,), 2, np.random.default_rng(0))
        tensors = params.parameters()
        for i, t in enumerate(tensors):
            t.grad = np.full(t.shape, float(i))
        tensors[0].grad[0, 0] = -0.0
        want = b"".join(t.grad.tobytes() for t in tensors)
        out = np.empty_like(params.flat)
        got = gather_grads(tensors, out)
        assert got is out
        assert out.tobytes() == want
        # the per-tensor gradients are freed, so the next backward starts afresh
        assert all(t.grad is None for t in tensors)


class TestConfigValidation:
    def test_defaults_valid(self):
        TrainConfig().validate()

    @pytest.mark.parametrize(
        "overrides",
        [
            {"e_fix": 5, "e_max": 4},
            {"e_fix": 0},
            {"tau": 0.0},
            {"tau": 1.5},
            {"lr": 0.0},
            {"momentum": -0.1},
            {"lam_oc": -1.0},
            {"b": 0},
            {"hidden": (8, 0)},
            {"socr_head": "both"},
        ],
    )
    def test_rejects(self, overrides):
        with pytest.raises(ConfigError):
            replace(TrainConfig(), **overrides).validate()

    @pytest.mark.parametrize(
        "config, name",
        [
            *((TrainConfig(), n) for n in ("lr", "momentum", "lam_em", "lam_oc", "lam_fm", "weak_noise_sigma",
                                           "strong_noise_sigma")),
            *((GenConfig(), n) for n in ("cluster_sigma", "min_center_distance", "center_box")),
        ],
        ids=lambda v: v if isinstance(v, str) else type(v).__name__,
    )
    def test_rejects_nan(self, config, name):
        assert name in {f.name for f in fields(config)}
        with pytest.raises(ConfigError):
            replace(config, **{name: float("nan")}).validate()

    @pytest.mark.parametrize(
        "cls, name, low",
        [
            *((TrainConfig, name, low) for name, low in (
                ("b", 1), ("mu", 1), ("lam_em", 0), ("lam_oc", 0), ("lam_fm", 0), ("i_max", 1), ("momentum", 0),
                ("seed", 0), ("eval_every", 1), ("weak_noise_sigma", 0))),
            *((GenConfig, name, low) for name, low in (
                ("k_classes", 1), ("n_seen_outlier", 0), ("n_unseen_outlier", 0), ("d_in", 1),
                ("labels_per_class", 1), ("unlabeled_per_outlier", 0), ("test_per_class", 0),
                ("test_per_outlier", 0), ("cluster_sigma", 0), ("min_center_distance", 0),
                ("max_center_retries", 1))),
        ],
        ids=lambda v: getattr(v, "__name__", str(v)),
    )
    def test_range_check_names_field_and_value(self, cls, name, low):
        """Each lower bound that validate enforces: a count one below it, or
        a nan float, is refused with a message naming the field and the value."""
        value = low - 1 if get_type_hints(cls)[name] is int else float("nan")
        with pytest.raises(ConfigError) as e:
            replace(cls(), **{name: value}).validate()
        words = re.findall(r"[\w.+-]+", str(e.value))
        assert name in words and str(value) in words, str(e.value)


class TestTrainLoop:
    def test_step_and_epoch_accounting(self, monkeypatch):
        cfg = replace(FAST, e_fix=2, e_max=3, i_max=4, eval_every=2)
        steps = []
        monkeypatch.setattr(trainer_mod, "sgd_step", lambda *args: steps.append(sgd_step(*args)))
        history = train(dataset(), cfg)
        assert len(steps) == 3 * 4
        assert len(history.k_sizes) == 3
        assert [r.epoch for r in history.records] == [2, 3]

    def test_selection_starts_at_e_fix(self):
        cfg = replace(FAST, e_fix=2, e_max=4, i_max=2)
        history = train(dataset(), cfg)
        assert history.k_sizes[0] == 0  # epoch 1 precedes the detector warm-up
        assert len(history.k_sizes) == 4

    def test_last_k_size_matches_final_params(self):
        ds = dataset()
        cfg = replace(FAST, e_fix=1, e_max=3, i_max=3, eval_every=3)
        history = train(ds, cfg)
        expected = select_pseudo_inliers(history.final_params, ds.train_view().unlabeled_x)
        assert history.k_sizes[-1] == len(expected)
        assert history.records[-1].k_size == history.k_sizes[-1]

    def test_bit_identical_reruns(self):
        ds = dataset()
        a = train(ds, FAST)
        b = train(ds, FAST)
        assert params_equal(a.final_params, b.final_params)
        assert a.k_sizes == b.k_sizes
        assert [r.l_all_dict() if hasattr(r, "l_all_dict") else r for r in a.records] == b.records

    def test_final_params_are_views_of_flat(self):
        params = train(dataset(), FAST).final_params
        assert all(np.shares_memory(t.data, params.flat) for t in params.parameters())
        assert params.flat.tobytes() == b"".join(t.data.tobytes() for t in params.parameters())

    def test_seed_changes_the_run(self):
        ds = dataset()
        a = train(ds, FAST)
        b = train(ds, replace(FAST, seed=4))
        assert not params_equal(a.final_params, b.final_params)

    def test_initial_candidates_never_consumed(self):
        # the end-of-epoch selection at e_fix replaces the set before the
        # first consuming epoch (e_fix + 1), so the seed set cannot matter
        ds = dataset()
        cfg = replace(FAST, e_fix=1, e_max=3, i_max=3)
        a = train(ds, cfg, initial_pseudo_inliers=np.array([0, 1, 2]))
        b = train(ds, cfg, initial_pseudo_inliers=np.array([10, 11]))
        assert params_equal(a.final_params, b.final_params)

    def test_selection_consumed_on_following_epoch(self, monkeypatch):
        # pin the selector to different candidate rows; with the pseudo-label
        # threshold below 1/K every drawn sample passes the mask, so the two
        # runs must diverge during epoch e_fix + 1
        ds = dataset()
        cfg = replace(FAST, e_fix=1, e_max=2, i_max=3, tau=0.3)
        monkeypatch.setattr(trainer_mod, "select_pseudo_inliers", lambda p, x: np.array([0, 1]))
        a = train(ds, cfg)
        monkeypatch.setattr(trainer_mod, "select_pseudo_inliers", lambda p, x: np.array([2, 3]))
        b = train(ds, cfg)
        assert not params_equal(a.final_params, b.final_params)

    def test_no_consumption_when_run_ends_at_e_fix(self, monkeypatch):
        # selections made at the last epoch are never used; even a selector
        # returning nonsense cannot change the outcome
        ds = dataset()
        cfg = replace(FAST, e_fix=2, e_max=2, i_max=3)
        a = train(ds, cfg)
        monkeypatch.setattr(trainer_mod, "select_pseudo_inliers", lambda p, x: np.arange(len(x)))
        b = train(ds, cfg)
        assert params_equal(a.final_params, b.final_params)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_features_raise_with_location(self):
        # inf parses from CSV, so it can reach the forward pass; the logits
        # go inf, the softmax shift yields nan, and the loss guard names the step
        from openset_ssl.data import Dataset, Split

        x = np.full((2, 1), np.inf)
        split = lambda: Split(x.copy(), np.array([0, 1]), np.zeros(2, dtype=np.int64))
        ds = Dataset(labeled=split(), unlabeled=split(), test=split(), k_classes=2, d_in=1)
        with pytest.raises(NumericError, match="epoch 1, iteration 1"):
            train(ds, replace(FAST, hidden=(4,)))

    def test_invalid_config_rejected_before_work(self):
        with pytest.raises(ConfigError):
            train(dataset(), replace(FAST, e_fix=5, e_max=2))

    @pytest.mark.parametrize("case", ["label_out_of_range", "outlier_row"])
    def test_invalid_dataset_rejected_before_any_batch(self, monkeypatch, case):
        # Dataset.validate is the one check of the labels: a hand-built
        # dataset is refused at train()'s entry, before a batch is drawn
        ds = dataset()
        if case == "label_out_of_range":
            ds.labeled.y[0], named = ds.k_classes, "labeled split has an inlier label outside [0, 3)"
        else:
            ds.labeled.y[0], ds.labeled.tag[0] = NO_LABEL, TAG_SEEN_OUTLIER
            named = "labeled split may contain only inliers"
        drawn = []
        monkeypatch.setattr(trainer_mod, "sample_batches", lambda *args: drawn.append(args) or sample_batches(*args))
        with pytest.raises(ConfigError, match=re.escape(named)):
            train(ds, FAST)
        assert drawn == []


def supervised_config(config: TrainConfig) -> TrainConfig:
    """The same run with every unlabeled term switched off."""
    return replace(config, lam_em=0.0, lam_oc=0.0, lam_fm=0.0)


class TestSupervisedReduction:
    def test_zero_weights_match_hand_rolled_loop(self):
        # with every unlabeled term off and no consuming epoch, train() must
        # reproduce a plain supervised loop draw for draw
        ds = dataset(seed=1)
        cfg = supervised_config(replace(FAST, e_fix=2, e_max=2, i_max=4, seed=5))
        got = train(ds, cfg)

        view = ds.train_view()
        rng = np.random.default_rng(cfg.seed)
        params = init_params(ds.d_in, cfg.hidden, ds.k_classes, rng)
        velocity = np.zeros_like(params.flat)
        grad = np.empty_like(params.flat)
        tensors = params.parameters()
        empty = np.empty(0, dtype=np.int64)
        for _ in range(cfg.e_max):
            for _ in range(cfg.i_max):
                xb, yb, ub, ib = sample_batches(view, cfg.b, cfg.mu, empty, rng)
                total = ref.add(loss_cls(closed(params, xb), yb), loss_ova(ova(params, xb), yb))
                for t in tensors:
                    t.zero_grad()
                total.backward()
                sgd_step(params.flat, gather_grads(tensors, grad), velocity, cfg.lr, cfg.momentum)

        assert params_equal(got.final_params, params)

    def test_supervised_config_zeroes_all_unlabeled_weights(self):
        cfg = supervised_config(TrainConfig())
        assert cfg.lam_em == cfg.lam_oc == cfg.lam_fm == 0.0
        assert cfg.b == TrainConfig().b  # everything else untouched

    def test_separable_clusters_reach_low_training_loss(self):
        gen = GenConfig(
            k_classes=2,
            n_seen_outlier=0,
            n_unseen_outlier=0,
            d_in=4,
            train_per_class=40,
            labels_per_class=20,
            unlabeled_per_outlier=0,
            test_per_class=20,
            test_per_outlier=0,
            cluster_sigma=0.5,
            min_center_distance=6.0,
            center_box=5.0,
        )
        ds = gen_synthetic(gen, seed=2)
        cfg = supervised_config(
            TrainConfig(b=16, mu=1, e_fix=2, e_max=2, i_max=100, lr=0.03, seed=0, hidden=(8,), eval_every=2)
        )
        history = train(ds, cfg)
        assert history.records[-1].l_cls < 0.1
        assert history.records[-1].err_inlier == 0.0
        # unlabeled terms were off the whole run
        assert all(r.l_em == r.l_oc == r.l_fm == 0.0 for r in history.records)
