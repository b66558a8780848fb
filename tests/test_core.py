import numpy as np
import pytest

from semtransfer import (
    AssociationMatrix,
    AttributeScoreMatrix,
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
