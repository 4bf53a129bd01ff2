import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psrank import metrics
from psrank.errors import DataError
from psrank.metrics import (MatchResult, confusion, evaluate_images, mae, match_instances, pearson, sa_sor, sor,
                            spearman)
from psrank.p2r import RankedInstance

from oracles import average_ranks, pearson_oracle, spearman_oracle


def box(canvas, r0, c0, h, w):
    m = np.zeros((canvas, canvas), dtype=bool)
    m[r0 : r0 + h, c0 : c0 + w] = True
    return m


def pred(mask, rank, score=0.9):
    return RankedInstance(mask=mask, rank=rank, score=score)


@st.composite
def scored_images(draw, n_ranks=4, canvas=6):
    """(preds, gts) for one image: 1-4 disjoint ground-truth masks, some
    perhaps empty, ranked 1..k in some order, and 0-4 predictions, each a copy
    of a ground-truth mask or random pixels, with ranks in 1..n_ranks.
    """
    k = draw(st.integers(1, 4))
    labels = draw(hnp.arrays(np.int64, (canvas, canvas), elements=st.integers(0, k)))
    gts = [(labels == i + 1, rank) for i, rank in enumerate(draw(st.permutations(range(1, k + 1))))]
    preds = []
    for _ in range(draw(st.integers(0, 4))):
        if draw(st.booleans()):
            mask = gts[draw(st.integers(0, k - 1))][0]
        else:
            mask = draw(hnp.arrays(np.bool_, (canvas, canvas)))
        preds.append(pred(mask, draw(st.integers(1, n_ranks))))
    return preds, gts


class TestMatchInstances:
    def test_identical_sets_all_matched(self):
        gts = [(box(16, 0, 0, 4, 4), 1), (box(16, 8, 8, 5, 5), 2)]
        preds = [pred(gts[0][0], 1), pred(gts[1][0], 2)]
        match = match_instances(preds, gts)
        assert len(match.pairs) == 2
        assert all(iou == 1.0 for _, _, iou in match.pairs)
        assert match.unmatched_gt == [] and match.unmatched_pred == []

    def test_no_overlap_all_unmatched(self):
        gts = [(box(16, 0, 0, 4, 4), 1)]
        preds = [pred(box(16, 10, 10, 4, 4), 1)]
        match = match_instances(preds, gts)
        assert match.pairs == []
        assert match.unmatched_gt == [0] and match.unmatched_pred == [0]

    def test_greedy_prefers_higher_iou(self):
        gt_mask = box(20, 0, 0, 10, 10)
        close = box(20, 0, 0, 10, 9)    # IoU 0.9
        loose = box(20, 0, 0, 10, 6)    # IoU 0.6
        gts = [(gt_mask, 1)]
        preds = [pred(loose, 1), pred(close, 2)]
        match = match_instances(preds, gts)
        assert len(match.pairs) == 1
        gi, pi, iou = match.pairs[0]
        assert pi == 1 and iou == pytest.approx(0.9)
        assert match.unmatched_pred == [0]

    def test_one_to_one(self):
        shared = box(16, 0, 0, 6, 6)
        gts = [(shared, 1), (shared, 2)]
        preds = [pred(shared, 1)]
        match = match_instances(preds, gts)
        assert len(match.pairs) == 1
        assert len(match.pairs) <= min(len(preds), len(gts))


class TestSor:
    def build(self, gt_ranks, pred_ranks):
        canvas = 8 * max(len(gt_ranks), 1)
        gts = [(box(canvas, 8 * i, 0, 6, 6), r) for i, r in enumerate(gt_ranks)]
        preds = [pred(box(canvas, 8 * i, 0, 6, 6), r) for i, r in enumerate(pred_ranks)]
        return match_instances(preds, gts)

    def test_equal_ranks_give_one(self):
        assert sor(self.build([1, 2, 3], [1, 2, 3])) == pytest.approx(1.0)

    def test_reversed_ranks_give_minus_one(self):
        assert sor(self.build([1, 2, 3], [3, 2, 1])) == pytest.approx(-1.0)

    def test_one_swap_gives_half(self):
        assert sor(self.build([1, 2, 3], [1, 3, 2])) == pytest.approx(0.5)

    def test_single_pair_undefined(self):
        assert sor(self.build([1], [1])) is None

    def test_matches_oracle_on_random_vectors(self):
        from scipy import stats
        rng = np.random.default_rng(0)
        defined = 0
        for _ in range(1000):
            n = int(rng.integers(2, 8))
            x = rng.integers(1, 5, size=n).astype(float)
            y = rng.integers(1, 5, size=n).astype(float)
            expected = spearman_oracle(x, y)
            got = spearman(x, y)
            if expected is None:
                assert got is None
                continue
            defined += 1
            assert got == pytest.approx(expected, abs=1e-9)
            assert got == pytest.approx(float(stats.spearmanr(x, y).statistic), abs=1e-12)
        assert defined > 500


class TestSaSor:
    def test_perfect_match(self):
        canvas = 24
        gts = [(box(canvas, 8 * i, 0, 6, 6), i + 1) for i in range(3)]
        preds = [pred(m, r) for m, r in gts]
        match = match_instances(preds, gts)
        assert sa_sor(match, 3) == pytest.approx(1.0)

    def test_all_missed_is_undefined(self):
        canvas = 16
        gts = [(box(canvas, 0, 0, 4, 4), 1), (box(canvas, 8, 8, 4, 4), 2)]
        match = match_instances([], gts)
        assert sa_sor(match, 2) is None

    def test_partial_miss_matches_pearson_oracle(self):
        canvas = 24
        gts = [(box(canvas, 8 * i, 0, 6, 6), i + 1) for i in range(3)]
        preds = [pred(gts[0][0], 1), pred(gts[1][0], 2)]
        match = match_instances(preds, gts)
        # saliency values N - r + 1, a miss 0: missing rank 3 used to score -0.5
        expected = pearson_oracle([3.0, 2.0, 1.0], [3.0, 2.0, 0.0])
        assert expected == pytest.approx(0.98198, abs=1e-5)
        assert sa_sor(match, 3) == pytest.approx(expected, abs=1e-9)

    def test_rank_past_gt_count_is_not_a_miss(self):
        # N is n_ranks, not the 3 GT instances: a match ranked 4 has value 1, not 0
        canvas = 24
        gts = [(box(canvas, 8 * i, 0, 6, 6), i + 1) for i in range(3)]
        match = match_instances([pred(gts[0][0], 1), pred(gts[1][0], 4)], gts)
        expected = pearson_oracle([4.0, 3.0, 2.0], [4.0, 1.0, 0.0])
        assert sa_sor(match, 4) == pytest.approx(expected, abs=1e-9)

    @settings(max_examples=200, deadline=None)
    @given(scored_images())
    def test_defined_exactly_where_raw_ranks_are(self, image):
        # the map r -> N - r + 1 is one-to-one and never 0, so no image moves
        # between defined and undefined
        match = match_instances(*image)
        raw = np.zeros(len(match.gt_ranks))
        for gi, pi, _ in match.pairs:
            raw[gi] = match.pred_ranks[pi]
        assert (sa_sor(match, 4) is None) == (pearson(match.gt_ranks, raw) is None)

    def test_core_matches_oracle_random(self):
        from scipy import stats
        rng = np.random.default_rng(1)
        defined = 0
        for _ in range(1000):
            n = int(rng.integers(2, 8))
            x = rng.integers(1, 6, size=n).astype(float)
            y = rng.integers(0, 6, size=n).astype(float)
            expected = pearson_oracle(x, y)
            got = pearson(x, y)
            if expected is None:
                assert got is None
                continue
            defined += 1
            assert got == pytest.approx(expected, abs=1e-9)
            assert got == pytest.approx(float(stats.pearsonr(x, y).statistic), abs=1e-12)
        assert defined > 500


small_ints = st.lists(st.integers(0, 4), max_size=8)


class TestCorrelationProperties:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_match_oracles_and_none_rules(self, data):
        x = data.draw(small_ints)
        y = data.draw(st.lists(st.integers(0, 4), min_size=len(x), max_size=len(x)))
        undefined = len(x) < 2 or len(set(x)) == 1 or len(set(y)) == 1
        for got, expected in ((pearson(x, y), pearson_oracle(x, y)), (spearman(x, y), spearman_oracle(x, y))):
            if undefined:
                assert got is None and expected is None
            else:
                assert got == pytest.approx(expected, abs=1e-9)
                assert -1.0 <= got <= 1.0

    @settings(max_examples=300, deadline=None)
    @given(small_ints.filter(lambda v: len(set(v)) > 1), st.integers(1, 5), st.integers(-3, 3),
           st.sampled_from([1, -1]))
    def test_perfect_correlation_is_exactly_bounded(self, x, a, b, sign):
        y = [sign * (a * v + b) for v in x]
        for got in (pearson(x, y), spearman(x, y)):
            assert -1.0 <= got <= 1.0
            assert got == pytest.approx(sign, abs=1e-12)


class TestOracles:
    def test_identity(self):
        assert spearman_oracle([1, 2, 3], [1, 2, 3]) == pytest.approx(1.0)
        assert pearson_oracle([1, 2, 3], [1, 2, 3]) == pytest.approx(1.0)

    def test_negation(self):
        assert spearman_oracle([1, 2, 3], [-1, -2, -3]) == pytest.approx(-1.0)
        assert pearson_oracle([1.0, 2.0], [-1.0, -2.0]) == pytest.approx(-1.0)

    def test_tie_handling_via_average_ranks(self):
        ranks = average_ranks([1, 2, 2])
        np.testing.assert_array_equal(ranks, [1.0, 2.5, 2.5])

    def test_zero_variance_undefined(self):
        assert pearson_oracle([1, 1, 1], [1, 2, 3]) is None
        assert spearman_oracle([2, 2, 2], [1, 2, 3]) is None


class TestMae:
    def test_identical_zero(self):
        canvas = 16
        instances = [(box(canvas, 0, 0, 4, 4), 1), (box(canvas, 8, 8, 4, 4), 2)]
        assert mae(instances, instances, 3, canvas) == 0.0

    def test_empty_prediction_equals_area_fraction(self):
        canvas = 16
        gt_mask = box(canvas, 0, 0, 8, 8)
        f = gt_mask.sum() / canvas ** 2
        assert mae([], [(gt_mask, 1)], 5, canvas) == pytest.approx(f)

    def test_rank_error_scales_with_value_step(self):
        canvas = 16
        m = box(canvas, 0, 0, 8, 8)
        f = m.sum() / canvas ** 2
        got = mae([(m, 2)], [(m, 1)], 5, canvas)
        assert got == pytest.approx(f * (1 / 5))

    def test_range_and_self_identity(self):
        rng = np.random.default_rng(2)
        canvas = 16
        instances = [(rng.random((canvas, canvas)) > 0.7, int(rng.integers(1, 4)))]
        assert mae(instances, instances, 3, canvas) == 0.0
        value = mae(instances, [], 3, canvas)
        assert 0.0 <= value <= 1.0

    def test_overlap_takes_higher_value(self):
        canvas = 8
        a = box(canvas, 0, 0, 4, 4)
        rendered = metrics.render_rank_map([(a, 2), (a, 1)], 2, canvas)
        assert rendered[0, 0] == 1.0


class TestConfusion:
    def test_diagonal_when_exact(self):
        canvas = 24
        gts = [(box(canvas, 8 * i, 0, 6, 6), i + 1) for i in range(3)]
        preds = [pred(m, r) for m, r in gts]
        grid = confusion([match_instances(preds, gts)], 3)
        np.testing.assert_array_equal(grid, np.eye(3, dtype=np.int64))

    def test_single_confusion_cell(self):
        canvas = 8
        gts = [(box(canvas, 0, 0, 4, 4), 2)]
        preds = [pred(gts[0][0], 4)]
        grid = confusion([match_instances(preds, gts)], 5)
        assert grid[1, 3] == 1
        assert grid.sum() == 1

    def test_total_equals_matched_pairs(self):
        rng = np.random.default_rng(3)
        canvas = 32
        matches = []
        expected = 0
        for _ in range(10):
            k = int(rng.integers(1, 4))
            gts = [(box(canvas, 8 * i, 0, 6, 6), i + 1) for i in range(k)]
            preds = [pred(m, int(rng.integers(1, 4))) for m, _ in gts[: int(rng.integers(0, k + 1))]]
            m = match_instances(preds, gts)
            matches.append(m)
            expected += len(m.pairs)
        assert confusion(matches, 3).sum() == expected


class TestEvaluateImages:
    def test_gt_passthrough_perfect_scores(self):
        rng = np.random.default_rng(4)
        canvas = 32
        per_image = []
        for i in range(5):
            k = 2 + i % 2
            gts = [(box(canvas, 10 * j, 10 * j, 8, 8), j + 1) for j in range(k)]
            preds = [pred(m, r) for m, r in gts]
            per_image.append((preds, gts))
        report = evaluate_images(per_image, 3, canvas)
        assert report.mae == 0.0
        assert report.sor == pytest.approx(1.0)
        assert report.sa_sor == pytest.approx(1.0)
        assert report.sor_normalized == pytest.approx(1.0)
        assert report.images_evaluated == 5
        assert report.images_excluded_sor == 0

    def test_single_instance_images_excluded_from_sor(self):
        canvas = 16
        gts = [(box(canvas, 0, 0, 6, 6), 1)]
        report = evaluate_images([([pred(gts[0][0], 1)], gts)], 3, canvas)
        assert report.images_excluded_sor == 1
        assert report.images_excluded_sasor == 1
        assert report.sor is None and report.sa_sor is None

    def test_coverage(self):
        # 5 GT instances over three images; one image has no prediction, and
        # one prediction overlaps nothing
        canvas = 16
        a, b, c = box(canvas, 0, 0, 6, 6), box(canvas, 8, 8, 6, 6), box(canvas, 0, 8, 6, 6)
        per_image = [
            ([pred(a, 1), pred(b, 2)], [(a, 1), (b, 2)]),
            ([pred(c, 1)], [(a, 1), (b, 2)]),
            ([], [(c, 1)]),
        ]
        report = evaluate_images(per_image, 3, canvas)
        assert report.gt_matched_fraction == pytest.approx(2 / 5)
        assert report.images_with_predictions == 2

    def test_no_gt_leaves_matched_fraction_undefined(self):
        report = evaluate_images([([pred(box(8, 0, 0, 4, 4), 1)], [])], 3, 8)
        assert report.gt_matched_fraction is None
        assert report.images_with_predictions == 1

    def test_no_images_raises(self):
        # the mean of no MAE read 0.0, a perfect score
        with pytest.raises(DataError, match="at least one image"):
            evaluate_images([], 3, 16)

    @pytest.mark.parametrize("gt_rank, pred_rank, bad", [
        (0, None, 0),  # an unmatched rank-0 instance rendered at 4/3: MAE 0.333
        (0, 1, 0),  # counted in the confusion matrix's last row
        (1, 0, 0),  # counted in the confusion matrix's last column
        (1, 4, 4),  # a bare IndexError from the confusion matrix
    ], ids=["unmatched-gt-0", "matched-gt-0", "pred-0", "pred-above-n"])
    def test_rank_outside_one_to_n_raises(self, gt_rank, pred_rank, bad):
        mask = box(8, 2, 2, 4, 4)
        good = ([pred(mask, 1)], [(mask, 1)])
        preds = [] if pred_rank is None else [pred(mask, pred_rank)]
        with pytest.raises(DataError, match=rf"^image 1 has rank {bad}, not an integer in 1\.\.3$"):
            evaluate_images([good, (preds, [(mask, gt_rank)])], 3, 8)

    # each used to raise numpy's bare broadcast ValueError from render_rank_map
    @pytest.mark.parametrize("canvas", [128, 32])
    @pytest.mark.parametrize("side", ["pred", "gt"])
    def test_mask_not_canvas_sized_raises(self, canvas, side):
        mask = box(64, 2, 2, 8, 8)
        good = ([pred(box(canvas, 2, 2, 8, 8), 1)], [(box(canvas, 2, 2, 8, 8), 1)])
        bad = ([pred(mask, 1)], []) if side == "pred" else ([], [(mask, 1)])
        with pytest.raises(DataError, match=rf"^image 1 has a mask of shape \(64, 64\), not \({canvas}, {canvas}\)$"):
            evaluate_images([good, bad], 3, canvas)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(scored_images(), min_size=1, max_size=3))
    def test_report_stays_in_range(self, per_image):
        report = evaluate_images(per_image, 4, 6)
        assert 0.0 <= report.mae <= 1.0
        for r in (report.sor, report.sa_sor):
            assert r is None or -1.0 <= r <= 1.0
        assert report.images_evaluated == len(per_image)
        assert 0 <= report.images_excluded_sor <= report.images_evaluated
        assert 0 <= report.images_excluded_sasor <= report.images_evaluated
        assert 0.0 <= report.gt_matched_fraction <= 1.0
        assert 0 <= report.images_with_predictions <= report.images_evaluated
        matched = sum(len(match_instances(preds, gts).pairs) for preds, gts in per_image)
        assert report.confusion.shape == (4, 4) and report.confusion.sum() == matched

    def test_json_schema(self):
        canvas = 16
        gts = [(box(canvas, 0, 0, 6, 6), 1), (box(canvas, 8, 8, 6, 6), 2)]
        preds = [pred(m, r) for m, r in gts]
        d = evaluate_images([(preds, gts)], 3, canvas).to_json_dict()
        assert set(d) == {"mae", "sa_sor", "sor", "sor_normalized", "images_evaluated",
                          "images_excluded_sor", "images_excluded_sasor", "gt_matched_fraction",
                          "images_with_predictions", "confusion"}
        assert np.array(d["confusion"]).shape == (3, 3)
