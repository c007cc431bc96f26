"""Data layer: generator geometry, augmentation statistics, batch
sampling, and exact CSV round-trips."""

import hashlib
import os
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from openset_ssl.data import (
    Dataset,
    GenConfig,
    Split,
    TAG_INLIER,
    TAG_SEEN_OUTLIER,
    TAG_UNSEEN_OUTLIER,
    augment,
    gen_synthetic,
    load_csv,
    sample_batches,
    save_csv,
)
from openset_ssl.errors import ConfigError, GenerationError, ParseError
from openset_ssl.trainer import TrainConfig


def traced_peak_bytes(fn):
    """fn() under tracemalloc; the peak of traced memory while it ran."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


SMALL = GenConfig(
    k_classes=3,
    n_seen_outlier=2,
    n_unseen_outlier=1,
    d_in=4,
    train_per_class=40,
    labels_per_class=5,
    unlabeled_per_outlier=30,
    test_per_class=20,
    test_per_outlier=15,
    cluster_sigma=0.8,
    min_center_distance=3.0,
    center_box=4.0,
)


class TestGenerator:
    def test_split_sizes_and_tags(self):
        ds = gen_synthetic(SMALL, seed=0)
        assert len(ds.labeled) == 3 * 5
        assert len(ds.unlabeled) == 3 * 35 + 2 * 30
        assert len(ds.test) == 3 * 20 + 3 * 15
        assert set(np.unique(ds.labeled.tag)) == {TAG_INLIER}
        assert set(np.unique(ds.unlabeled.tag)) == {TAG_INLIER, TAG_SEEN_OUTLIER}
        assert set(np.unique(ds.test.tag)) == {TAG_INLIER, TAG_SEEN_OUTLIER, TAG_UNSEEN_OUTLIER}
        assert set(np.unique(ds.labeled.y)) == {0, 1, 2}

    def test_unseen_outliers_only_in_test(self):
        ds = gen_synthetic(SMALL, seed=1)
        assert not np.any(ds.unlabeled.tag == TAG_UNSEEN_OUTLIER)
        assert np.any(ds.test.tag == TAG_UNSEEN_OUTLIER)

    def test_deterministic_by_seed(self):
        a = gen_synthetic(SMALL, seed=7)
        b = gen_synthetic(SMALL, seed=7)
        assert a == b
        c = gen_synthetic(SMALL, seed=8)
        assert a != c

    def test_zero_sigma_collapses_to_centers(self):
        from dataclasses import replace

        cfg = replace(SMALL, cluster_sigma=0.0)
        ds = gen_synthetic(cfg, seed=2)
        # with no spread, nearest-labeled-center classification is exact
        centers = np.stack([ds.labeled.x[ds.labeled.y == j][0] for j in range(cfg.k_classes)])
        inliers = ds.test.tag == TAG_INLIER
        dists = np.linalg.norm(ds.test.x[inliers, None, :] - centers[None], axis=2)
        assert np.array_equal(dists.argmin(axis=1), ds.test.y[inliers])

    def test_min_center_distance_honored(self):
        from dataclasses import replace

        cfg = replace(SMALL, cluster_sigma=0.0)
        ds = gen_synthetic(cfg, seed=3)
        centers = np.unique(np.vstack([ds.labeled.x, ds.unlabeled.x, ds.test.x]), axis=0)
        assert len(centers) == cfg.k_classes + cfg.n_seen_outlier + cfg.n_unseen_outlier
        for i in range(len(centers)):
            for j in range(i + 1, len(centers)):
                assert np.linalg.norm(centers[i] - centers[j]) >= cfg.min_center_distance

    def test_infeasible_placement_raises(self):
        from dataclasses import replace

        cfg = replace(SMALL, d_in=2, center_box=1.0, min_center_distance=50.0, max_center_retries=200)
        with pytest.raises(GenerationError):
            gen_synthetic(cfg, seed=4)

    def test_unplaceable_class_count_fails_in_small_memory(self):
        # more clusters than center draws: rejected before a per-cluster table exists
        cfg = replace(SMALL, d_in=2, center_box=1.0, min_center_distance=50.0, max_center_retries=200,
                      k_classes=2**20)

        def generate():
            with pytest.raises(GenerationError, match="could not place 1048579 cluster centers"):
                gen_synthetic(cfg, seed=4)

        assert traced_peak_bytes(generate) < 4 << 20

    @pytest.mark.parametrize("change, error", [({"center_box": 1e308}, GenerationError),
                                               ({"cluster_sigma": float("nan")}, ConfigError),
                                               ({"cluster_sigma": 1e308}, GenerationError)],
                             ids=["box_overflows", "sigma_nan", "sigma_huge"])
    def test_nonfinite_draw_raises(self, change, error):
        # a RuntimeWarning would fail the test before the error is checked;
        # a nan sigma is rejected by validate() before anything is drawn
        with pytest.raises(error, match=next(iter(change))):
            gen_synthetic(replace(SMALL, **change), seed=0)

    @pytest.mark.parametrize("key", ["train_per_class", "unlabeled_per_outlier", "test_per_class",
                                     "test_per_outlier", "d_in"])
    @pytest.mark.parametrize("count", [10**13, 10**20], ids=["unallocatable", "beyond_int64"])
    def test_unallocatable_size_raises_naming_the_sizes(self, key, count):
        # 10**13 is tens of TiB, which numpy refuses at once; 10**20 no shape can hold
        with pytest.raises(GenerationError, match="train_per_class, unlabeled_per_outlier, test_per_class, "
                                                  "test_per_outlier and d_in ask for clusters too large"):
            gen_synthetic(replace(SMALL, **{key: count}), seed=0)

    def test_peaks_no_higher_than_the_dataset_plus_its_largest_cluster(self):
        """On csv_eval's 140,000-row test split, each cluster's draw goes
        straight into the split arrays: beyond the dataset, gen_synthetic
        holds one cluster at a time, numpy's ufunc buffer (the center's
        broadcast add) and a few small objects."""
        cfg = GenConfig(test_per_class=20000, test_per_outlier=20000)
        gen_synthetic(cfg, 1)  # numpy's first-use allocations stay out of the trace
        made = []
        peak = traced_peak_bytes(lambda: made.append(gen_synthetic(cfg, 0)))
        ds, = made
        dataset = sum(a.nbytes for split in (ds.labeled, ds.unlabeled, ds.test) for a in (split.x, split.y, split.tag))
        largest = max(cfg.train_per_class + cfg.test_per_class, cfg.unlabeled_per_outlier + cfg.test_per_outlier)
        assert peak <= dataset + largest * cfg.d_in * 8 + np.getbufsize() * 8 + (16 << 10)

    def test_more_labels_than_samples_rejected(self):
        from dataclasses import replace

        cfg = replace(SMALL, labels_per_class=41)
        with pytest.raises(ConfigError):
            gen_synthetic(cfg, seed=5)

    def test_train_view_hides_tags(self):
        ds = gen_synthetic(SMALL, seed=6)
        view = ds.train_view()
        assert not hasattr(view, "tag") and not hasattr(view, "unlabeled_tags")
        assert set(vars(view)) == {"labeled_x", "labeled_y", "unlabeled_x"}


DEFAULT = GenConfig()
TINY = GenConfig(k_classes=2, n_seen_outlier=1, n_unseen_outlier=1, d_in=2, train_per_class=4,
                 labels_per_class=2, unlabeled_per_outlier=2, test_per_class=2, test_per_outlier=2,
                 min_center_distance=1.0)
# sha256 over dtype, shape and bytes of every split's x, y, tag for seeds
# 0, 1, 2: a reordered draw, split or cluster changes the digest
PINNED_DATASETS = [
    ("default", DEFAULT, "0aab801780aaf7d98d5cb86f28074a16a83b845cce7cabe1eadf9d363fbfc166"),
    ("d_in_32", replace(DEFAULT, d_in=32), "eeccf0c691de924a7e63c45f11a5cd8ccee082854eb345e075a1f85eb07afc82"),
    ("no_outlier_clusters", replace(DEFAULT, n_seen_outlier=0, n_unseen_outlier=0),
     "a205085af2d8fcb8cb6c630d8df0ca1231e54e71fb6ffbf27be35155d3487c72"),
    ("one_class", replace(DEFAULT, k_classes=1), "b8d9c19e1ce31515bab2ab01ebc24aa615739114487166766caf9250570e70da"),
    ("no_test_no_unlabeled_outliers", replace(DEFAULT, test_per_class=0, test_per_outlier=0, unlabeled_per_outlier=0),
     "4168768fa017c8cd8618ac8067997df44cfb4a07077ca280f65cf1d1a9defe9a"),
    ("all_train_labeled", replace(DEFAULT, labels_per_class=DEFAULT.train_per_class),
     "e066bb7de1fe44afce38aadc99d6d3d9440f963abc4c7e23177b01c95e08d57b"),
    ("zero_sigma", replace(DEFAULT, cluster_sigma=0.0), "7a5f4202b2e4dc6fa36cef1711203a61f14f51dfde9ce2203d56b134c105d1a5"),
    ("tiny_csv", TINY, "ae54b001b59b5052381a67f57940ac65c8296a912e88fcf72bae24a57cae23df"),
]


@pytest.mark.parametrize("name,cfg,digest", PINNED_DATASETS, ids=[c[0] for c in PINNED_DATASETS])
def test_generator_bits_are_pinned(name, cfg, digest):
    h = hashlib.sha256()
    for seed in (0, 1, 2):
        ds = gen_synthetic(cfg, seed)
        for split in (ds.labeled, ds.unlabeled, ds.test):
            for a in (split.x, split.y, split.tag):
                h.update(f"{a.dtype.str}{a.shape}".encode())
                h.update(a.tobytes())
    assert h.hexdigest() == digest


class TestAugment:
    def test_weak_zero_sigma_is_identity(self):
        x = np.random.default_rng(0).normal(size=(5, 3))
        out = augment(x, 0.0, 0.0, np.random.default_rng(1))
        np.testing.assert_array_equal(out, x)
        assert out is not x  # fresh array either way

    def test_weak_noise_statistics(self):
        # 1e5 draws: sample mean within 5 sigma / sqrt(n) of zero
        n = 100_000
        x = np.zeros((n, 1))
        out = augment(x, 0.5, 0.0, np.random.default_rng(2))
        tol = 5 * 0.5 / np.sqrt(n)
        assert abs(out.mean()) < tol
        assert abs(out.std() - 0.5) < 0.01

    def test_strong_mask_rate(self):
        n = 100_000
        x = np.ones((n, 1))
        out = augment(x, 0.0, 0.3, np.random.default_rng(3))
        rate = np.mean(out == 0.0)
        assert abs(rate - 0.3) < 0.01

    def test_strong_mask_prob_one_zeroes_everything(self):
        out = augment(np.random.default_rng(4).normal(size=(10, 4)), 0.0, 1.0, np.random.default_rng(5))
        np.testing.assert_array_equal(out, np.zeros((10, 4)))

    def test_independent_streams_differ(self):
        x = np.zeros((10, 3))
        rng = np.random.default_rng(6)
        a = augment(x, 0.5, 0.0, rng)
        b = augment(x, 0.5, 0.0, rng)
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("sigma", [0.0, 0.5])
    def test_weak_view_draws_only_the_jitter(self, sigma):
        """mask_prob 0 draws no mask: the view is x plus the jitter, and the
        stream moves on by the jitter alone."""
        x = np.random.default_rng(7).normal(size=(6, 3))
        rng, ref = np.random.default_rng(8), np.random.default_rng(8)
        out = augment(x, sigma, 0.0, rng)
        np.testing.assert_array_equal(out, x + sigma * ref.standard_normal(x.shape) if sigma else x)
        untouched = np.random.default_rng(8)
        assert rng.bit_generator.state == (ref if sigma else untouched).bit_generator.state

    def test_validation(self):
        with pytest.raises(ConfigError):
            TrainConfig(weak_noise_sigma=-1.0).validate()
        with pytest.raises(ConfigError):
            TrainConfig(weak_noise_sigma=1.0, strong_noise_sigma=0.5).validate()
        with pytest.raises(ConfigError):
            TrainConfig(strong_mask_prob=1.5).validate()

    @settings(max_examples=25)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 20), st.integers(1, 6))
    def test_shape_preserved(self, seed, n, d):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, d))
        assert augment(x, 0.5, 0.0, rng).shape == (n, d)
        assert augment(x, 1.0, 0.3, rng).shape == (n, d)


class TestSampleBatches:
    def view(self, n_lab=30, n_unl=50, d=3):
        rng = np.random.default_rng(0)
        ds = Dataset(
            labeled=Split(rng.normal(size=(n_lab, d)), rng.integers(0, 2, n_lab), np.zeros(n_lab, dtype=int)),
            unlabeled=Split(rng.normal(size=(n_unl, d)), np.full(n_unl, -1), np.full(n_unl, TAG_SEEN_OUTLIER)),
            test=Split(np.empty((0, d)), np.empty(0, dtype=int), np.empty(0, dtype=int)),
            k_classes=2,
            d_in=d,
        )
        return ds.train_view()

    def test_batch_shapes(self):
        view = self.view()
        xb, yb, ub, ib = sample_batches(view, 8, 2, np.array([1, 5, 9]), np.random.default_rng(1))
        assert xb.shape == (8, 3) and yb.shape == (8,)
        assert ub.shape == (16, 3) and ib.shape == (16, 3)

    def test_empty_candidate_set_gives_empty_pseudo_batch(self):
        view = self.view()
        _, _, _, ib = sample_batches(view, 8, 2, np.empty(0, dtype=int), np.random.default_rng(2))
        assert ib.shape == (0, 3)

    def test_pseudo_batch_drawn_from_candidates_only(self):
        view = self.view()
        candidates = np.array([3, 17, 40])
        _, _, _, ib = sample_batches(view, 4, 2, candidates, np.random.default_rng(3))
        pool = view.unlabeled_x[candidates]
        for row in ib:
            assert any(np.array_equal(row, p) for p in pool)

    def test_labeled_coverage_under_uniform_sampling(self):
        view = self.view(n_lab=25)
        rng = np.random.default_rng(4)
        seen = np.zeros(25, dtype=bool)
        for _ in range(1000):
            xb, _, _, _ = sample_batches(view, 10, 1, np.empty(0, dtype=int), rng)
            for row in xb:
                match = np.flatnonzero((view.labeled_x == row).all(axis=1))
                seen[match] = True
        assert seen.all()

    def test_empty_labeled_pool_rejected(self):
        from openset_ssl.data import TrainView

        view = TrainView(np.empty((0, 3)), np.empty(0, dtype=int), np.ones((5, 3)))
        with pytest.raises(ConfigError):
            sample_batches(view, 4, 2, np.empty(0, dtype=int), np.random.default_rng(5))

    def test_deterministic_by_generator_state(self):
        view = self.view()
        a = sample_batches(view, 8, 2, np.arange(10), np.random.default_rng(6))
        b = sample_batches(view, 8, 2, np.arange(10), np.random.default_rng(6))
        for left, right in zip(a, b):
            np.testing.assert_array_equal(left, right)


class TestCsv:
    def test_roundtrip_equality(self, tmp_path):
        ds = gen_synthetic(SMALL, seed=9)
        path = tmp_path / "data.csv"
        save_csv(ds, path)
        loaded = load_csv(path)
        assert loaded == ds
        assert loaded.k_classes == ds.k_classes and loaded.d_in == ds.d_in

    def test_rewrite_is_byte_identical(self, tmp_path):
        ds = gen_synthetic(SMALL, seed=10)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        save_csv(ds, a)
        save_csv(load_csv(a), b)
        assert a.read_bytes() == b.read_bytes()

    def test_header_schema(self, tmp_path):
        ds = gen_synthetic(SMALL, seed=11)
        path = tmp_path / "data.csv"
        save_csv(ds, path)
        header = path.read_text().splitlines()[0]
        assert header == "role,label,tag," + ",".join(f"f{i}" for i in range(SMALL.d_in))

    def test_malformed_row_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("role,label,tag,f0\nlabeled,0,inlier,1.0\nlabeled,1,inlier\n")
        with pytest.raises(ParseError, match=":3:"):
            load_csv(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_nonfinite_feature_names_line(self, tmp_path, value):
        path = tmp_path / "bad.csv"
        path.write_text(
            "role,label,tag,f0,f1\nlabeled,0,inlier,1.0,2.0\nlabeled,1,inlier,1.5,2.5\n"
            f"test,0,inlier,3.0,{value}\n"
        )
        with pytest.raises(ParseError, match=f"bad.csv:4: feature f1 is '{value}'"):
            load_csv(path)

    def test_unknown_tag_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("role,label,tag,f0\nlabeled,0,inlier,1.0\nunlabeled,-1,weird,2.0\n")
        with pytest.raises(ParseError, match="weird"):
            load_csv(path)

    def test_unseen_tag_in_unlabeled_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("role,label,tag,f0\nlabeled,0,inlier,1.0\nunlabeled,-1,unseen_outlier,2.0\n")
        with pytest.raises(ParseError):
            load_csv(path)

    def test_inlier_label_out_of_range_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "role,label,tag,f0\nlabeled,0,inlier,1.0\nlabeled,1,inlier,2.0\ntest,5,inlier,3.0\n"
        )
        with pytest.raises(ParseError):
            load_csv(path)

    def test_missing_labeled_rows_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("role,label,tag,f0\nunlabeled,-1,seen_outlier,1.0\n")
        with pytest.raises(ParseError):
            load_csv(path)

    def test_missing_class_rejected(self, tmp_path):
        # class 1 has no labeled sample, so the class range is not covered
        path = tmp_path / "bad.csv"
        path.write_text("role,label,tag,f0\nlabeled,0,inlier,1.0\ntest,2,inlier,2.0\n")
        with pytest.raises(ParseError):
            load_csv(path)

    def test_huge_label_fails_in_small_memory(self, tmp_path):
        # the class count is the largest labeled label plus 1; checking that
        # the labels cover it must not build anything of that size
        path = tmp_path / "bad.csv"
        path.write_text(f"role,label,tag,f0\nlabeled,0,inlier,1.0\nlabeled,{2**20},inlier,2.0\n")

        def load():
            with pytest.raises(ParseError, match=f"labeled split must cover every class in \\[0, {2**20 + 1}\\)"):
                load_csv(path)

        assert traced_peak_bytes(load) < 4 << 20

    def test_forked_read_peaks_no_higher_than_in_process_parts(self, tmp_path, monkeypatch):
        """The forked read's parent holds half the rows while it parses and
        1.5 times them while it joins. Without os.fork, _two_processes runs
        both parts in this process, which also holds the first part's rows
        while it parses the second."""
        path = tmp_path / "data.csv"
        save_csv(gen_synthetic(replace(SMALL, test_per_class=2000, test_per_outlier=2000), seed=0), path)
        forks = []
        real_fork = os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())
        forked = traced_peak_bytes(lambda: load_csv(path))
        assert forks == [1]
        monkeypatch.delattr(os, "fork")
        assert forked <= traced_peak_bytes(lambda: load_csv(path))

    def test_outlier_with_class_label_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("role,label,tag,f0\nlabeled,0,inlier,1.0\nunlabeled,2,seen_outlier,2.0\n")
        with pytest.raises(ParseError):
            load_csv(path)

    def test_float_values_roundtrip_exactly(self, tmp_path):
        # awkward values: tiny, huge, negative zero, many digits
        x = np.array([[1e-308, -0.0], [1.7976931348623157e308, 0.1], [np.pi, -2.5000000000000004]])
        ds = Dataset(
            labeled=Split(x, np.array([0, 1, 0]), np.zeros(3, dtype=int)),
            unlabeled=Split(x * 0.5, np.full(3, -1), np.full(3, TAG_SEEN_OUTLIER)),
            test=Split(x * 0.25, np.full(3, -1), np.full(3, TAG_UNSEEN_OUTLIER)),
            k_classes=2,
            d_in=2,
        )
        path = tmp_path / "edge.csv"
        save_csv(ds, path)
        assert load_csv(path) == ds
