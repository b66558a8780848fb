import numpy as np
import pytest

from semtransfer import (
    CategoryScoreMatrix,
    DatasetSplit,
    ValidationError,
    average_precision,
    evaluate_zero_shot,
    mean_ap,
    multiclass_accuracy,
    roc_auc,
)


def brute_auc(scores, positives):
    """Oracle: enumerate positive-negative pairs; ties score half."""
    pos = [s for s, p in zip(scores, positives) if p]
    neg = [s for s, p in zip(scores, positives) if not p]
    total = 0.0
    for sp in pos:
        for sn in neg:
            if sp > sn:
                total += 1.0
            elif sp == sn:
                total += 0.5
    return total / (len(pos) * len(neg))


def brute_ap(scores, positives):
    """Oracle: walk the ranking, averaging precision at each positive."""
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    precisions = []
    hits = 0
    for rank, i in enumerate(order, start=1):
        if positives[i]:
            hits += 1
            precisions.append(hits / rank)
    return sum(precisions) / len(precisions)


class TestRocAuc:
    def test_three_hand_cases(self):
        scores = [0.9, 0.4, 0.6, 0.1]
        assert roc_auc(scores, [True, False, True, False]) == 1.0
        assert roc_auc(scores, [False, True, True, False]) == 0.5
        assert roc_auc(scores, [False, False, True, True]) == 0.25

    def test_hand_cases_agree_with_pair_oracle(self):
        scores = [0.9, 0.4, 0.6, 0.1]
        for pos in ([True, False, True, False],
                    [False, True, True, False],
                    [False, False, True, True]):
            assert roc_auc(scores, pos) == brute_auc(scores, pos)

    def test_matches_pair_oracle_on_random_data(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            n = int(rng.integers(4, 30))
            scores = rng.integers(0, 6, n) / 5.0  # coarse grid forces ties
            positives = rng.random(n) < 0.4
            if positives.all() or not positives.any():
                continue
            got = roc_auc(scores, positives)
            want = brute_auc(list(scores), list(positives))
            assert got == pytest.approx(want, abs=1e-12)

    def test_all_tied_scores_give_half(self):
        assert roc_auc([0.5, 0.5, 0.5, 0.5], [True, False, True, False]) == 0.5

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(ValidationError):
            roc_auc([0.1, 0.2], [True, True])
        with pytest.raises(ValidationError):
            roc_auc([0.1, 0.2], [False, False])

    @pytest.mark.parametrize("scores, positives, error", [
        ([[0.1, 0.2]], [[True, False]], r"positives must be 1-d, got shape \(1, 2\)"),
        ([0.1, 0.2, 0.3], [True, False], "scores and positives must have equal length"),
        ([0.1, np.nan], [True, False], "scores must be finite"),
    ], ids=["2d", "lengths", "nan"])
    def test_malformed_inputs_rejected(self, scores, positives, error):
        with pytest.raises(ValidationError, match=error):
            roc_auc(scores, positives)

    def test_average_ranks_match_scipy_rankdata(self):
        from scipy.stats import rankdata
        from semtransfer.metrics import _average_ranks
        rng = np.random.default_rng(17)
        for trial in range(200):
            n = int(rng.integers(1, 80))
            s = rng.integers(0, int(rng.integers(1, 8)), size=n).astype(float)
            if trial % 2:
                s = s + rng.normal(size=n) * (rng.random(n) < 0.5)
            assert np.array_equal(_average_ranks(s, np.argsort(-s, kind="stable")), rankdata(s))

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(32)
        scores = rng.normal(size=20)
        positives = rng.random(20) < 0.5
        if positives.all() or not positives.any():
            positives[0] = True
            positives[1] = False
        a = roc_auc(scores, positives)
        b = roc_auc(np.exp(scores), positives)
        assert a == pytest.approx(b, abs=1e-12)


class TestAveragePrecision:
    def test_hand_cases(self):
        # positives at ranks 1 and 3: (1/1 + 2/3) / 2
        assert average_precision([0.9, 0.8, 0.7, 0.6],
                                 [True, False, True, False]) == pytest.approx(5 / 6, abs=1e-15)
        assert average_precision([0.9, 0.8], [True, True]) == 1.0
        # single positive ranked last of four
        assert average_precision([0.9, 0.8, 0.7, 0.6],
                                 [False, False, False, True]) == 0.25

    def test_matches_rank_walk_oracle(self):
        rng = np.random.default_rng(33)
        for _ in range(50):
            n = int(rng.integers(3, 25))
            scores = rng.integers(0, 5, n) / 4.0
            positives = rng.random(n) < 0.4
            if not positives.any():
                positives[int(rng.integers(0, n))] = True
            got = average_precision(scores, positives)
            want = brute_ap(list(scores), list(positives))
            assert got == pytest.approx(want, abs=1e-12)

    def test_no_positives_rejected(self):
        with pytest.raises(ValidationError):
            average_precision([0.5, 0.2], [False, False])


class TestMeanAp:
    def test_all_positives_ranked_first(self):
        scores = CategoryScoreMatrix(("i0", "i1", "i2"), ("A",),
                                     np.array([[0.9], [0.8], [0.1]]))
        truth = {"i0": "A", "i1": "A", "i2": "B"}
        assert mean_ap(scores, truth) == 1.0

    def test_single_positive_ranked_second_of_four(self):
        scores = CategoryScoreMatrix(("i0", "i1", "i2", "i3"), ("A",),
                                     np.array([[0.9], [0.8], [0.7], [0.6]]))
        truth = {"i0": "B", "i1": "A", "i2": "B", "i3": "B"}
        assert mean_ap(scores, truth) == 0.5

    def test_mean_over_two_categories(self):
        # column A: positives i0,i2,i3 fill the top three ranks (AP 1.0)
        # column B: lone positive i1 sits at rank two (AP 0.5)
        values = np.array([[0.9, 0.9],
                           [0.1, 0.8],
                           [0.8, 0.2],
                           [0.7, 0.1]])
        scores = CategoryScoreMatrix(("i0", "i1", "i2", "i3"), ("A", "B"), values)
        truth = {"i0": "A", "i1": "B", "i2": "A", "i3": "A"}
        assert mean_ap(scores, truth) == 0.75

    def test_agrees_with_per_column_average_precision(self):
        rng = np.random.default_rng(44)
        insts = tuple(f"i{k}" for k in range(12))
        cats = ("A", "B", "C")
        truth = {i: cats[int(rng.integers(0, 3))] for i in insts}
        values = rng.random((12, 3))
        scores = CategoryScoreMatrix(insts, cats, values)
        want = np.mean([average_precision(values[:, j],
                                          [truth[i] == c for i in insts])
                        for j, c in enumerate(cats)])
        assert mean_ap(scores, truth) == pytest.approx(want, abs=1e-15)

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(45)
        insts = tuple(f"i{k}" for k in range(10))
        truth = {i: ("A" if rng.random() < 0.5 else "B") for i in insts}
        truth[insts[0]], truth[insts[1]] = "A", "B"
        values = rng.random((10, 2))
        base = CategoryScoreMatrix(insts, ("A", "B"), values)
        warped = CategoryScoreMatrix(insts, ("A", "B"), np.exp(3.0 * values))
        assert mean_ap(base, truth) == mean_ap(warped, truth)

    def test_category_without_positives_rejected(self):
        scores = CategoryScoreMatrix(("i0", "i1"), ("A", "B"),
                                     np.array([[0.9, 0.1], [0.8, 0.2]]))
        with pytest.raises(ValidationError, match="without positives"):
            mean_ap(scores, {"i0": "A", "i1": "A"})

    def test_unlabeled_instance_rejected(self):
        scores = CategoryScoreMatrix(("i0", "i1"), ("A",),
                                     np.array([[0.9], [0.8]]))
        with pytest.raises(ValidationError, match="without truth"):
            mean_ap(scores, {"i0": "A"})


class TestMulticlassAccuracy:
    def test_argmax_with_stable_ties(self):
        scores = CategoryScoreMatrix(("i0", "i1"), ("c0", "c1"),
                                     np.array([[0.5, 0.5], [0.2, 0.8]]))
        # i0 ties; the earlier category c0 wins
        assert multiclass_accuracy(scores, {"i0": "c0", "i1": "c1"}) == 1.0
        assert multiclass_accuracy(scores, {"i0": "c1", "i1": "c1"}) == 0.5

    def test_explicit_instance_subset(self):
        scores = CategoryScoreMatrix(("i0", "i1"), ("c0", "c1"),
                                     np.array([[0.9, 0.1], [0.1, 0.9]]))
        truth = {"i0": "c0", "i1": "c0"}
        assert multiclass_accuracy(scores, truth, ["i1"]) == 0.0

    def test_missing_rows_rejected(self):
        scores = CategoryScoreMatrix(("i0",), ("c0",), np.array([[1.0]]))
        with pytest.raises(ValidationError):
            multiclass_accuracy(scores, {"i0": "c0"}, ["ghost"])


    def test_repeated_instance_rejected(self):
        scores = CategoryScoreMatrix(("i0",), ("c0",), np.array([[1.0]]))
        with pytest.raises(ValidationError, match="duplicate"):
            multiclass_accuracy(scores, {"i0": "c0"}, ["i0", "i0"])

    @pytest.mark.parametrize("truth, instances, error", [
        ({"i9": "c0"}, None, "no instances to score"),
        ({"i0": "c0"}, [], "no instances to score"),
        ({"i0": "c0"}, ["i0", "i1"], "instance without truth label: 'i1'"),
    ], ids=["no_truth", "empty", "unlabelled"])
    def test_unscorable_instances_rejected(self, truth, instances, error):
        scores = CategoryScoreMatrix(("i0", "i1"), ("c0",), np.array([[1.0], [0.0]]))
        with pytest.raises(ValidationError, match=error):
            multiclass_accuracy(scores, truth, instances)


def _eval_fixture():
    """Two novel categories, four novel test rows, two known distractors."""
    instances = ("t0", "t1", "t2", "t3", "d0", "d1")
    values = np.array([
        [0.9, 0.1],   # n0
        [0.8, 0.3],   # n0
        [0.2, 0.7],   # n1
        [0.1, 0.9],   # n1
        [0.3, 0.2],   # distractor (k0), scores low
        [0.2, 0.4],   # distractor (k0)
    ])
    scores = CategoryScoreMatrix(instances, ("n0", "n1"), values)
    truth = {"t0": "n0", "t1": "n0", "t2": "n1", "t3": "n1",
             "d0": "k0", "d1": "k0", "x0": "k0"}
    split = DatasetSplit(
        known_categories={"k0"},
        novel_categories={"n0", "n1"},
        train_instances={"x0": "k0"},
        test_instances={"t0": "n0", "t1": "n0", "t2": "n1", "t3": "n1",
                        "d0": "k0", "d1": "k0"},
        fewshot_instances={},
    )
    return scores, truth, split


class TestEvaluateZeroShot:
    def test_novel_only_protocol(self):
        scores, truth, split = _eval_fixture()
        report = evaluate_zero_shot(scores, truth, split, "novel_only")
        assert report.protocol == "novel_only"
        assert report.counts["novel_test_instances"] == 4
        assert report.counts["distractor_instances"] == 0
        # perfectly separated columns
        assert report.per_category_auc == {"n0": 1.0, "n1": 1.0}
        assert report.mean_auc == 1.0
        assert report.accuracy == 1.0
        assert report.mean_ap == 1.0

    def test_with_distractors_protocol(self):
        scores, truth, split = _eval_fixture()
        report = evaluate_zero_shot(scores, truth, split, "with_distractors")
        assert report.counts["evaluated_instances"] == 6
        assert report.counts["distractor_instances"] == 2
        # distractors score below the true positives here, so AUC stays 1
        assert report.mean_auc == 1.0
        # accuracy still ignores distractor rows
        assert report.accuracy == 1.0

    def test_adversarial_distractors_lower_auc(self):
        scores, truth, split = _eval_fixture()
        values = scores.values.copy()
        values[4] = [0.95, 0.05]  # outscores every real n0 instance
        adversarial = CategoryScoreMatrix(scores.instances, scores.categories, values)
        novel = evaluate_zero_shot(adversarial, truth, split, "novel_only")
        mixed = evaluate_zero_shot(adversarial, truth, split, "with_distractors")
        assert mixed.per_category_auc["n0"] < novel.per_category_auc["n0"]
        assert mixed.mean_auc <= novel.mean_auc + 1e-9

    def test_missing_truth_rejected(self):
        scores, truth, split = _eval_fixture()
        truth = dict(truth)
        del truth["t0"]
        with pytest.raises(ValidationError):
            evaluate_zero_shot(scores, truth, split)

    def test_truth_split_disagreement_rejected(self):
        scores, truth, split = _eval_fixture()
        truth = dict(truth)
        truth["t0"] = "n1"
        with pytest.raises(ValidationError):
            evaluate_zero_shot(scores, truth, split)

    def test_scores_outside_novel_set_rejected(self):
        scores, truth, split = _eval_fixture()
        bad = CategoryScoreMatrix(scores.instances, ("n0", "k0"), scores.values)
        with pytest.raises(ValidationError):
            evaluate_zero_shot(bad, truth, split)

    def test_missing_score_rows_rejected(self):
        scores, truth, split = _eval_fixture()
        short = CategoryScoreMatrix(scores.instances[:3], scores.categories,
                                    scores.values[:3])
        with pytest.raises(ValidationError):
            evaluate_zero_shot(short, truth, split)

    def test_unknown_protocol_rejected(self):
        scores, truth, split = _eval_fixture()
        with pytest.raises(ValidationError):
            evaluate_zero_shot(scores, truth, split, "bogus")

    def test_category_without_positives_rejected(self):
        scores, truth, split = _eval_fixture()
        split2 = DatasetSplit(
            known_categories=split.known_categories,
            novel_categories=split.novel_categories | {"n2"},
            train_instances=split.train_instances,
            test_instances=split.test_instances,
            fewshot_instances={},
        )
        wide = CategoryScoreMatrix(scores.instances, ("n0", "n1", "n2"),
                                   np.column_stack([scores.values, np.zeros(6)]))
        with pytest.raises(ValidationError, match="without positives"):
            evaluate_zero_shot(wide, truth, split2)

    @pytest.mark.parametrize("protocol", ["novel_only", "with_distractors"])
    def test_tied_scores_match_per_column_metrics(self, protocol):
        # scores on a coarse grid, so every column has many ties, including
        # ties between positives and negatives; some rows tie across columns
        rng = np.random.default_rng(11)
        novel = [f"n{j}" for j in range(4)]
        test = {f"t{i}": novel[i % 4] for i in range(60)}
        test.update({f"d{i}": "k0" for i in range(20)})
        instances = tuple(test)
        values = np.round(rng.random((len(instances), 4)) * 4) / 4
        values[::7] = 0.5
        scores = CategoryScoreMatrix(instances, tuple(novel), values)
        split = DatasetSplit(known_categories={"k0"}, novel_categories=set(novel),
                             train_instances={"x0": "k0"}, test_instances=test,
                             fewshot_instances={})
        report = evaluate_zero_shot(scores, {**test, "x0": "k0"}, split, protocol)
        pool = [i for i, inst in enumerate(instances)
                if protocol == "with_distractors" or inst.startswith("t")]
        labels = [test[instances[i]] for i in pool]
        for j, cat in enumerate(novel):
            positives = [lab == cat for lab in labels]
            column = values[pool, j]
            assert report.per_category_auc[cat] == roc_auc(column, positives)
            assert report.per_category_auc[cat] == brute_auc(list(column), positives)
            assert report.per_category_ap[cat] == average_precision(column, positives)
            assert report.per_category_ap[cat] == pytest.approx(
                brute_ap(list(column), positives), rel=1e-12)
        novel_rows = [i for i in range(len(instances)) if instances[i].startswith("t")]
        assert report.accuracy == np.mean(
            [novel[int(np.argmax(values[i]))] == test[instances[i]] for i in novel_rows])
