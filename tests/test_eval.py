"""Evaluation: anomaly scoring, rank AUROC against a brute-force
pairwise oracle, error rates, the one-pass evaluation against
per-population scoring, blocked scoring against one whole-array
forward, histograms, and the metrics text format."""

import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from openset_ssl import model
from openset_ssl.autodiff import no_grad
from openset_ssl.cli import main
from openset_ssl.data import (
    GenConfig,
    Split,
    TAG_INLIER,
    TAG_SEEN_OUTLIER,
    TAG_UNSEEN_OUTLIER,
    gen_synthetic,
    load_csv,
    save_csv,
)
from openset_ssl.errors import ConfigError, MetricError, NumericError
from openset_ssl.evaluation import (
    OUTLIER,
    MetricsRecord,
    anomaly_scores,
    auroc,
    error_rate_inliers,
    evaluate_params,
    export_histogram,
    format_metrics_line,
    histogram_edges,
    predict_open,
    score_block_rows,
    write_metrics,
)
from openset_ssl.model import init_params, save_checkpoint
from openset_ssl.trainer import TrainConfig, train
from oracles import parse_metrics_line, read_metrics
from test_data import traced_peak_bytes


def zeroed(d_in, hidden, k):
    params = init_params(d_in, hidden, k, np.random.default_rng(0))
    for t in params.parameters():
        t.data[...] = 0.0
    return params


def pairwise_auroc(scores, is_outlier):
    """Quadratic reference: fraction of (outlier, inlier) pairs ranked
    correctly, ties worth half."""
    pos = scores[is_outlier]
    neg = scores[~is_outlier]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


def rank_sum_auroc(scores, is_outlier):
    """Mann-Whitney U from the outliers' rank sum, tied scores sharing
    their group's mean rank: U is a sum of half-integers, so exact."""
    n_pos = int(is_outlier.sum())
    _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    avg_rank = np.cumsum(counts) - (counts - 1) / 2.0
    u = avg_rank[inverse][is_outlier].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * (len(scores) - n_pos)))


# Scores with many ties: a few shared values, one-decimal draws, nan and
# infinities, and any float.
TIED_SCORES = st.one_of(st.sampled_from([0.0, -0.0, 0.5, 1.0, np.inf, -np.inf, np.nan]),
                        st.floats(0, 1).map(lambda v: round(v, 1)), st.floats())


class TestAnomalyScores:
    def test_uniform_model_scores_half(self):
        params = zeroed(3, (4,), 2)
        scores = anomaly_scores(predict_open(params, np.random.default_rng(0).normal(size=(6, 3))))
        np.testing.assert_array_equal(scores, np.full(6, 0.5))

    def test_crafted_score(self):
        # class 0 wins the closed head; its sub-classifier puts 1/4 on inlier
        params = zeroed(2, (), 2)
        params.ova_b.data[1] = np.log(3.0)
        scores = anomaly_scores(predict_open(params, np.zeros((3, 2))))
        np.testing.assert_allclose(scores, 0.75, rtol=0, atol=1e-12)

    def test_agrees_with_open_set_verdict(self):
        # score > 0.5 exactly when the verdict is outlier; 0.5 itself is inlier
        rng = np.random.default_rng(1)
        params = init_params(3, (8,), 4, rng)
        x = rng.normal(size=(50, 3))
        prediction = predict_open(params, x)
        np.testing.assert_array_equal(anomaly_scores(prediction) > 0.5, prediction.verdict == OUTLIER)

    def test_scores_are_probabilities(self):
        rng = np.random.default_rng(2)
        params = init_params(4, (8, 8), 3, rng)
        scores = anomaly_scores(predict_open(params, rng.normal(size=(40, 4)) * 5))
        assert np.all((scores >= 0.0) & (scores <= 1.0))


class TestAuroc:
    def test_perfect_separation(self):
        scores = np.array([0.1, 0.2, 0.8, 0.9])
        flags = np.array([False, False, True, True])
        assert auroc(scores, flags) == 1.0
        assert auroc(-scores, flags) == 0.0

    def test_hand_counted(self):
        # outliers score 0.9 and 0.2 against inliers 0.1 and 0.3: three of
        # four pairs ranked correctly
        scores = np.array([0.1, 0.9, 0.3, 0.2])
        flags = np.array([False, True, False, True])
        assert auroc(scores, flags) == 0.75

    def test_all_tied_is_chance(self):
        assert auroc(np.full(10, 0.5), np.arange(10) < 4) == 0.5

    def test_tie_gets_half_credit(self):
        scores = np.array([0.5, 0.5, 0.1])
        flags = np.array([True, False, False])
        # pairs: tie (0.5) and a win (1.0) out of two
        assert auroc(scores, flags) == 0.75

    def test_matches_pairwise_oracle_with_ties(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            scores = np.round(rng.random(100), 1)  # heavy ties
            flags = rng.random(100) < 0.3
            if flags.all() or not flags.any():
                continue
            assert abs(auroc(scores, flags) - pairwise_auroc(scores, flags)) <= 1e-12

    @settings(max_examples=300)
    @given(st.lists(TIED_SCORES, min_size=2, max_size=200), st.data())
    def test_equals_rank_sum_form_bit_for_bit(self, raw, data):
        """Counting by binary search gives the float the rank-sum form gives."""
        flags = np.array(data.draw(st.lists(st.booleans(), min_size=len(raw), max_size=len(raw))))
        assume(flags.any() and not flags.all())
        scores = np.array(raw, dtype=np.float64)
        assert auroc(scores, flags).hex() == rank_sum_auroc(scores, flags).hex()

    def test_single_population_rejected(self):
        with pytest.raises(MetricError):
            auroc(np.array([0.1, 0.2]), np.array([True, True]))
        with pytest.raises(MetricError):
            auroc(np.array([0.1, 0.2]), np.array([False, False]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(MetricError):
            auroc(np.array([0.1, 0.2, 0.3]), np.array([True, False]))

    @settings(max_examples=60)
    @given(
        st.lists(st.integers(-50, 50), min_size=2, max_size=40),
        st.data(),
    )
    def test_monotone_transform_invariance(self, raw, data):
        n = len(raw)
        flags = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        if flags.all() or not flags.any():
            return
        scores = np.array(raw, dtype=np.float64)
        # affine map with positive slope preserves order and ties exactly
        assert auroc(scores, flags) == auroc(2.0 * scores + 3.0, flags)

    @settings(max_examples=60)
    @given(
        st.lists(st.integers(-50, 50), min_size=2, max_size=40),
        st.data(),
    )
    def test_negation_complements(self, raw, data):
        n = len(raw)
        flags = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        if flags.all() or not flags.any():
            return
        scores = np.array(raw, dtype=np.float64)
        assert auroc(-scores, flags) == pytest.approx(1.0 - auroc(scores, flags), abs=1e-12)


class TestErrorRate:
    def split(self, x, y, tag):
        return Split(np.asarray(x, dtype=np.float64), np.asarray(y), np.asarray(tag))

    def sign_classifier(self):
        # closed head predicts class 1 for positive x, class 0 otherwise
        params = zeroed(1, (), 2)
        params.closed_w.data[0] = [-1.0, 1.0]
        return params

    def error_rate(self, params, test):
        return error_rate_inliers(predict_open(params, test.x), test)

    def test_hand_counted(self):
        params = self.sign_classifier()
        test = self.split([[-1.0], [1.0], [2.0], [-2.0]], [0, 1, 0, 1], [0, 0, 0, 0])
        assert self.error_rate(params, test) == 0.5

    def test_outlier_rows_ignored(self):
        params = self.sign_classifier()
        test = self.split(
            [[-1.0], [1.0], [2.0], [-2.0], [100.0], [-100.0]],
            [0, 1, 0, 1, -1, -1],
            [0, 0, 0, 0, TAG_SEEN_OUTLIER, TAG_UNSEEN_OUTLIER],
        )
        assert self.error_rate(params, test) == 0.5

    def test_no_inliers_rejected(self):
        params = self.sign_classifier()
        test = self.split([[1.0]], [-1], [TAG_SEEN_OUTLIER])
        with pytest.raises(MetricError):
            self.error_rate(params, test)


class TestSplitAurocs:
    def make_test_split(self, tags):
        rng = np.random.default_rng(4)
        n = len(tags)
        tags = np.asarray(tags)
        y = np.where(tags == TAG_INLIER, 0, -1)
        return Split(rng.normal(size=(n, 2)), y, tags)

    def test_uniform_model_gives_chance(self):
        params = zeroed(2, (4,), 2)
        test = self.make_test_split([TAG_INLIER, TAG_INLIER, TAG_SEEN_OUTLIER, TAG_UNSEEN_OUTLIER])
        result = evaluate_params(params, test)
        assert result.auroc_seen == 0.5
        assert result.auroc_unseen == 0.5

    def test_missing_population_rejected(self):
        # without inliers neither the error rate nor an AUROC is defined
        params = zeroed(2, (4,), 2)
        no_inliers = self.make_test_split([TAG_SEEN_OUTLIER, TAG_UNSEEN_OUTLIER])
        with pytest.raises(MetricError):
            evaluate_params(params, no_inliers)

    def test_seen_metric_excludes_unseen_rows(self):
        # a crafted detector scores the unseen cluster perfectly but the seen
        # one at chance; the seen AUROC must not move when unseen rows exist
        params = zeroed(2, (4,), 2)
        with_unseen = self.make_test_split(
            [TAG_INLIER, TAG_INLIER, TAG_SEEN_OUTLIER, TAG_UNSEEN_OUTLIER, TAG_UNSEEN_OUTLIER]
        )
        without = Split(
            with_unseen.x[with_unseen.tag != TAG_UNSEEN_OUTLIER],
            with_unseen.y[with_unseen.tag != TAG_UNSEEN_OUTLIER],
            with_unseen.tag[with_unseen.tag != TAG_UNSEEN_OUTLIER],
        )
        assert evaluate_params(params, with_unseen).auroc_seen == evaluate_params(params, without).auroc_seen

    def test_evaluate_params_handles_absent_populations(self):
        params = zeroed(2, (4,), 2)
        test = self.make_test_split([TAG_INLIER, TAG_INLIER, TAG_SEEN_OUTLIER])
        result = evaluate_params(params, test)
        assert result.auroc_seen == 0.5
        assert result.auroc_unseen is None
        assert result.err_inlier in (0.0, 0.5, 1.0)
        assert len(result.scores) == 3
        np.testing.assert_array_equal(result.is_outlier, [False, False, True])

    def test_evaluate_params_fields(self):
        params = init_params(2, (4,), 2, np.random.default_rng(5))
        test = self.make_test_split([TAG_INLIER, TAG_SEEN_OUTLIER, TAG_INLIER])
        result = evaluate_params(params, test)
        np.testing.assert_array_equal(result.is_outlier, [False, True, False])
        np.testing.assert_array_equal(result.scores, anomaly_scores(predict_open(params, test.x)))

    def test_nonfinite_scores_rejected_with_row(self):
        # a huge but finite row overflows an all-ones extractor; no
        # RuntimeWarning escapes (the suite turns them into errors)
        params = init_params(2, (4,), 2, np.random.default_rng(5))
        params.extractor[0][0].data[...] = 1.0
        test = self.make_test_split([TAG_INLIER, TAG_SEEN_OUTLIER, TAG_UNSEEN_OUTLIER])
        test.x[1] = 1e308
        with pytest.raises(NumericError, match="row 1"):
            evaluate_params(params, test)


def whole_forward(params, x):
    """The model's own forward pieces, outside evaluation, in one pass
    over x: closed-set labels and the predicted class's inlier probability."""
    with no_grad():
        features = model.feature_extract(params, x)
        closed = model.classify_closed(params, features).data
        ova = model.ova_probs(params, features).data
    label = closed.argmax(axis=1)
    return label, ova[np.arange(len(label)), label, 0]


def subset_forward(params, x):
    """Closed-set labels and anomaly scores of the rows of x, from whole_forward."""
    label, inlier_prob = whole_forward(params, x)
    return label, 1.0 - inlier_prob


@pytest.mark.parametrize("d_in,hidden", [(8, (64, 64)), (32, (256, 256))], ids=["default", "wide"])
def test_one_pass_equals_per_population_scoring(d_in, hidden):
    """evaluate_params scores the split once and slices it; the reference
    forwards each population subset separately, as evaluation used to.
    Both must agree bit for bit."""
    ds = gen_synthetic(GenConfig(d_in=d_in), 0)
    params = train(ds, TrainConfig(hidden=hidden, b=32, e_fix=1, e_max=2, i_max=10, eval_every=2)).final_params
    test = ds.test
    result = evaluate_params(params, test)

    inlier = test.tag == TAG_INLIER
    label, _ = subset_forward(params, test.x[inlier])
    assert result.err_inlier == float(np.mean(label != test.y[inlier]))
    for tag, got in ((TAG_SEEN_OUTLIER, result.auroc_seen), (TAG_UNSEEN_OUTLIER, result.auroc_unseen)):
        rows = inlier | (test.tag == tag)
        _, scores = subset_forward(params, test.x[rows])
        np.testing.assert_array_equal(result.scores[rows], scores)
        assert got == auroc(scores, test.tag[rows] != TAG_INLIER)
    _, scores = subset_forward(params, test.x)
    np.testing.assert_array_equal(result.scores, scores)
    assert 0.0 < result.auroc_seen and 0.0 < result.auroc_unseen


class TestBlockedScoring:
    """predict_open forwards score_block_rows(params) rows at a time; the
    reference is one forward over the whole array through the model's own
    pieces."""

    def test_block_rows_follow_the_widest_layer(self):
        assert score_block_rows(init_params(8, (64, 64), 4, np.random.default_rng(0))) == 4096
        ds = gen_synthetic(GenConfig(d_in=32), 0)  # the wide shapes of the benchmark's train_wide
        wide = init_params(ds.d_in, (256, 256), ds.k_classes, np.random.default_rng(0))
        assert score_block_rows(wide) <= 1024
        pool = ds.train_view().unlabeled_x
        assert -(-len(pool) // score_block_rows(wide)) == 2  # selection scores the pool in two blocks

    @pytest.mark.parametrize("d_in,hidden", [(8, (64, 64)), (32, (256, 256))], ids=["default", "wide"])
    def test_blocks_equal_one_whole_array_forward(self, d_in, hidden):
        params = init_params(d_in, hidden, 4, np.random.default_rng(1))
        x = 3.0 * np.random.default_rng(2).normal(size=(2 * score_block_rows(params) + 17, d_in))
        prediction = predict_open(params, x)
        label, inlier_prob = whole_forward(params, x)
        assert np.array_equal(prediction.closed_label, label)
        assert np.array_equal(prediction.inlier_prob, inlier_prob)
        assert np.array_equal(prediction.verdict, np.where(inlier_prob < 0.5, OUTLIER, label))
        assert 0 < np.sum(prediction.verdict == OUTLIER) < len(x)

    def test_nonfinite_row_in_second_block_named_by_global_index(self):
        params = init_params(2, (4,), 2, np.random.default_rng(5))
        params.extractor[0][0].data[...] = 1.0
        x = np.random.default_rng(6).normal(size=(2 * score_block_rows(params), 2))
        row = score_block_rows(params) + 5
        x[row] = 1e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match=f"row {row}$"):
                predict_open(params, x)

    def test_empty_input(self):
        params = init_params(3, (4,), 2, np.random.default_rng(0))
        prediction = predict_open(params, np.empty((0, 3)))
        label, inlier_prob = whole_forward(params, np.empty((0, 3)))
        for got, want in ((prediction.closed_label, label), (prediction.inlier_prob, inlier_prob),
                          (prediction.verdict, label)):
            assert got.shape == (0,) and got.dtype == want.dtype

    def test_eval_cmd_over_several_blocks(self, tmp_path):
        ds = gen_synthetic(GenConfig(test_per_class=1200, test_per_outlier=1200), 0)
        params = init_params(ds.d_in, (64, 64), ds.k_classes, np.random.default_rng(3))
        assert len(ds.test) > 2 * score_block_rows(params)
        save_csv(ds, tmp_path / "data.csv")
        save_checkpoint(tmp_path / "ckpt.npz", params)
        assert main(["eval", "--checkpoint", str(tmp_path / "ckpt.npz"), "--data", str(tmp_path / "data.csv"),
                     "--out", str(tmp_path / "ev")]) == 0
        got = dict(token.split("=") for token in (tmp_path / "ev" / "eval.txt").read_text().split())

        test = load_csv(tmp_path / "data.csv").test
        label, scores = subset_forward(params, test.x)
        inlier = test.tag == TAG_INLIER
        assert float(got["err_inlier"]) == float(np.mean(label[inlier] != test.y[inlier]))
        for key, tag in (("auroc_seen", TAG_SEEN_OUTLIER), ("auroc_unseen", TAG_UNSEEN_OUTLIER)):
            rows = inlier | (test.tag == tag)
            assert float(got[key]) == auroc(scores[rows], ~inlier[rows])

    def test_evaluation_peaks_no_higher_than_the_forward_and_its_outputs(self):
        """On csv_eval's 140,000-row test split (35 blocks), the metrics
        evaluate_params takes from the one prediction allocate no more than
        that prediction holds: the AUROCs rank by binary search over the
        sorted inlier scores, not through a rank table of every score."""
        test = gen_synthetic(GenConfig(test_per_class=20000, test_per_outlier=20000), 0).test
        params = init_params(test.x.shape[1], (64, 64), 4, np.random.default_rng(0))
        assert len(test) >= 2 * score_block_rows(params)
        prediction = predict_open(params, test.x)
        outputs = sum(a.nbytes for a in (prediction.closed_label, prediction.inlier_prob, prediction.verdict))
        forward = traced_peak_bytes(lambda: predict_open(params, test.x))
        assert traced_peak_bytes(lambda: evaluate_params(params, test)) <= forward + outputs


class TestHistogram:
    def read(self, path):
        lines = path.read_text().splitlines()
        assert lines[0] == "bin_low,bin_high,inlier_count,outlier_count"
        rows = [line.split(",") for line in lines[1:]]
        return (
            np.array([float(r[0]) for r in rows]),
            np.array([float(r[1]) for r in rows]),
            np.array([int(r[2]) for r in rows]),
            np.array([int(r[3]) for r in rows]),
        )

    def test_counts_conserved(self, tmp_path):
        rng = np.random.default_rng(5)
        scores = rng.random(200)
        flags = rng.random(200) < 0.4
        path = tmp_path / "hist.csv"
        export_histogram(scores, flags, histogram_edges(20), path)
        _, _, inl, out = self.read(path)
        assert inl.sum() == (~flags).sum() and out.sum() == flags.sum()

    def test_point_mass_lands_in_one_bin(self, tmp_path):
        path = tmp_path / "hist.csv"
        export_histogram(np.full(7, 0.5), np.zeros(7, dtype=bool), histogram_edges(20), path)
        low, high, inl, out = self.read(path)
        assert inl[10] == 7 and inl.sum() == 7
        assert low[10] == 0.5 and high[10] == pytest.approx(0.55)
        assert out.sum() == 0

    def test_score_one_falls_in_last_bin(self, tmp_path):
        path = tmp_path / "hist.csv"
        export_histogram(np.array([1.0, 0.0]), np.array([True, False]), histogram_edges(10), path)
        _, _, inl, out = self.read(path)
        assert out[-1] == 1 and inl[0] == 1

    def test_edges_span_unit_interval(self, tmp_path):
        path = tmp_path / "hist.csv"
        export_histogram(np.array([0.3]), np.array([False]), histogram_edges(4), path)
        low, high, _, _ = self.read(path)
        assert low[0] == 0.0 and high[-1] == 1.0
        np.testing.assert_allclose(low[1:], high[:-1], rtol=0, atol=0)

    def test_invalid_inputs_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            histogram_edges(0)
        with pytest.raises(ConfigError):
            export_histogram(np.array([0.5, 0.6]), np.array([True]), histogram_edges(5), tmp_path / "h.csv")


class TestMetricsText:
    def record(self, **overrides):
        base = dict(
            epoch=7,
            l_cls=0.1,
            l_ova=1.0 / 3.0,
            l_em=1.2345678901234567,
            l_oc=1e-17,
            l_fm=0.0,
            err_inlier=0.025,
            auroc_seen=0.9125,
            auroc_unseen=0.8871,
            k_size=1234,
        )
        base.update(overrides)
        return MetricsRecord(**base)

    def test_roundtrip_is_exact(self):
        record = self.record()
        assert parse_metrics_line(format_metrics_line(record)) == record

    def test_none_aurocs_omitted_and_recovered(self):
        record = self.record(auroc_seen=None, auroc_unseen=None)
        line = format_metrics_line(record)
        assert "auroc" not in line
        assert parse_metrics_line(line) == record

    def test_key_order_is_fixed(self):
        line = format_metrics_line(self.record())
        keys = [token.split("=")[0] for token in line.split()]
        assert keys == [
            "epoch", "l_cls", "l_ova", "l_em", "l_oc", "l_fm",
            "err_inlier", "auroc_seen", "auroc_unseen", "k_size",
        ]

    def test_file_roundtrip(self, tmp_path):
        records = [self.record(epoch=1), self.record(epoch=2, auroc_unseen=None)]
        path = tmp_path / "metrics.txt"
        write_metrics(path, records)
        assert read_metrics(path) == records

    def test_malformed_token_rejected(self):
        with pytest.raises(ConfigError):
            parse_metrics_line("epoch=1 what")

    def test_missing_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_metrics_line("epoch=1 l_cls=0.5")

    @pytest.mark.parametrize("key, bad", [("epoch", "x"), ("l_cls", "x"), ("auroc_seen", "x"), ("k_size", "1.5")])
    def test_non_numeric_value_names_key(self, key, bad):
        tokens = dict(token.split("=", 1) for token in format_metrics_line(self.record()).split())
        tokens[key] = bad
        line = " ".join(f"{k}={v}" for k, v in tokens.items())
        with pytest.raises(ConfigError, match=f"metrics key {key}: .*{bad!r}"):
            parse_metrics_line(line)
