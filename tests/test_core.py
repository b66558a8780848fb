import numpy as np
import pytest

from semtransfer import (
    AssociationMatrix,
    AttributeScoreMatrix,
    CategoryScoreMatrix,
    DatasetSplit,
    FeatureMatrix,
    RelatednessMatrix,
    ValidationError,
    clean_identifier,
    validate_split,
)


class TestIdentifiers:
    def test_strips_whitespace(self):
        assert clean_identifier("  polar bear ") == "polar bear"

    def test_case_sensitive(self):
        assert clean_identifier("Bear") != clean_identifier("bear")

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            clean_identifier("   ")


class TestAssociationMatrix:
    def test_range_check(self):
        with pytest.raises(ValidationError):
            AssociationMatrix(("c",), ("a",), np.array([[1.5]]))

    def test_binary_check(self):
        with pytest.raises(ValidationError):
            AssociationMatrix(("c",), ("a",), np.array([[0.5]]), binary=True)

    def test_binary_zero_row_warns(self):
        with pytest.warns(UserWarning):
            AssociationMatrix(("c", "d"), ("a",), np.array([[1.0], [0.0]]), binary=True)

    def test_values_read_only(self):
        m = AssociationMatrix(("c",), ("a",), np.array([[0.5]]))
        with pytest.raises(ValueError):
            m.values[0, 0] = 0.1

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValidationError):
            AssociationMatrix(("c", "c"), ("a",), np.zeros((2, 1)))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            AssociationMatrix(("c",), ("a", "b"), np.zeros((1, 1)))

    def test_index_helpers(self):
        m = AssociationMatrix(("c", "d"), ("a", "b"), np.zeros((2, 2)))
        assert m.category_index("d") == 1
        assert m.attribute_index("a") == 0
        assert [m.category_index(c) for c in ("d", "c", "d")] == [1, 0, 1]
        with pytest.raises(ValidationError):
            m.category_index("a")
        with pytest.raises(ValidationError):
            m.attribute_index("c")


class TestOtherMatrices:
    def test_attribute_scores_unit_interval(self):
        with pytest.raises(ValidationError):
            AttributeScoreMatrix(("i",), ("a",), np.array([[-0.1]]))

    def test_feature_matrix_dim(self):
        f = FeatureMatrix(("i", "j"), np.zeros((2, 7)))
        assert f.dim == 7

    def test_relatedness_nonnegative(self):
        with pytest.raises(ValidationError):
            RelatednessMatrix(("c",), ("a",), np.array([[-1.0]]))

    def test_relatedness_measure_tag(self):
        with pytest.raises(ValidationError):
            RelatednessMatrix(("c",), ("a",), np.zeros((1, 1)), measure="bogus")

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError):
            FeatureMatrix(("i",), np.array([[np.nan]]))


class TestLabelledMatrix:
    KINDS = [
        (AssociationMatrix, [("c",), ("a",)]),
        (AttributeScoreMatrix, [("i",), ("a",)]),
        (FeatureMatrix, [("i",)]),
        (RelatednessMatrix, [("c",), ("a",)]),
        (CategoryScoreMatrix, [("i",), ("c",)]),
    ]

    @pytest.mark.parametrize("kind, axes", KINDS)
    def test_every_kind_shares_the_checks(self, kind, axes):
        m = kind(*[(f" {ids[0]} ",) for ids in axes], [[0.5]])
        assert [getattr(m, f.name) for f in kind.layout()[0]] == axes
        with pytest.raises(ValueError):
            m.values[0, 0] = 0.25
        for bad in ([[np.inf]], [[0.5, 0.5], [0.5, 0.5]], [0.5]):
            with pytest.raises(ValidationError):
                kind(*axes, bad)
        with pytest.raises(ValidationError):
            kind(*[ids * 2 for ids in axes], np.full((2, 2), 0.5))

    def test_scores_and_features_are_unbounded(self):
        CategoryScoreMatrix(("i",), ("c",), [[-5.0]])
        FeatureMatrix(("i",), [[-5.0, 1e300]])

    def test_take_selects_rows_in_order(self):
        m = AssociationMatrix(("c", "d", "e"), ("a", "b"), [[1, 0], [0, 1], [1, 1]],
                              binary=True)
        sub = m.take(["e", "c"])
        assert sub.categories == ("e", "c")
        assert sub.attributes == m.attributes
        assert sub.values.tolist() == [[1.0, 1.0], [1.0, 0.0]]
        assert sub.binary
        assert sub.category_index("c") == 1

    def test_take_keeps_the_free_columns(self):
        f = FeatureMatrix(("i", "j"), [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        assert f.take(["j"]).values.tolist() == [[4.0, 5.0, 6.0]]

    def test_take_rejects_unknown_rows(self):
        m = CategoryScoreMatrix(("i",), ("c",), [[0.5]])
        with pytest.raises(ValidationError, match="'x'"):
            m.take(["i", "x"])

    def test_relatedness_measure_defaults_to_untagged(self):
        assert RelatednessMatrix(("c",), ("a",), [[0.5]]).measure is None
        with pytest.raises(ValidationError):
            RelatednessMatrix(("c",), ("a",), [[0.5]], measure="fused")


class TestSplitValidation:
    def _split(self, **overrides):
        base = dict(
            known_categories={"k0", "k1"},
            novel_categories={"n0"},
            train_instances={"i0": "k0", "i1": "k1"},
            test_instances={"i2": "n0"},
            fewshot_instances={},
        )
        base.update(overrides)
        return DatasetSplit(**base)

    def _assoc(self):
        return AssociationMatrix(("k0", "k1", "n0"), ("a",), np.ones((3, 1)))

    def test_clean_split_has_no_violations(self):
        assert validate_split(self._split(), self._assoc()) == []

    def test_overlapping_category_sets_flagged(self):
        split = self._split(novel_categories={"k0", "n0"})
        violations = validate_split(split, self._assoc())
        assert any("both known and novel" in v for v in violations)

    def test_train_label_outside_known_flagged(self):
        split = self._split(train_instances={"i0": "n0"})
        assert validate_split(split, self._assoc())

    def test_fewshot_label_outside_novel_flagged(self):
        split = self._split(fewshot_instances={"i9": "k0"})
        assert validate_split(split, self._assoc())

    def test_fewshot_test_overlap_flagged(self):
        split = self._split(fewshot_instances={"i2": "n0"})
        assert validate_split(split, self._assoc())

    def test_category_missing_from_associations_flagged(self):
        assoc = AssociationMatrix(("k0", "k1"), ("a",), np.ones((2, 1)))
        assert validate_split(self._split(), assoc)

    def test_split_alone_skips_association_coverage(self):
        assert validate_split(self._split()) == []
        split = self._split(fewshot_instances={"i2": "n0"})
        assert validate_split(split) == ["instance both few-shot and test: i2"]
