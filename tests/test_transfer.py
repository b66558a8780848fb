import math

import numpy as np
import pytest

from semtransfer import (
    AssociationMatrix,
    AttributePrior,
    AttributeScoreMatrix,
    CategoryScoreMatrix,
    RelatednessMatrix,
    Taxonomy,
    ValidationError,
    attribute_prior_from_associations,
    dap_scores,
    direct_similarity_scores,
    hierarchy_transfer,
)
from semtransfer.classify import PROB_FLOOR


class TestAttributePrior:
    def test_column_means(self):
        assoc = AssociationMatrix(("c0", "c1"), ("a0", "a1"),
                                  np.array([[1.0, 0.0], [0.0, 0.0]]), binary=True)
        prior = attribute_prior_from_associations(assoc)
        assert prior.values[0] == 0.5
        # an attribute active nowhere clamps to the floor instead of 0
        assert prior.values[1] == 0.05

    def test_everywhere_active_clamps_to_ceiling(self):
        assoc = AssociationMatrix(("c0", "c1"), ("a0",), np.ones((2, 1)), binary=True)
        prior = attribute_prior_from_associations(assoc)
        assert prior.values[0] == 0.95

    def test_prior_strictly_inside_unit_interval(self):
        with pytest.raises(ValidationError):
            AttributePrior(("a0",), np.array([1.0]))
        with pytest.raises(ValidationError):
            AttributePrior(("a0",), np.array([0.0]))

    def test_prior_needs_one_value_per_attribute(self):
        with pytest.raises(ValidationError,
                           match=r"prior must have one value per attribute, got \(1,\)"):
            AttributePrior(("a0", "a1"), np.array([0.5]))


def brute_dap(p_row, assoc_row, prior):
    """Oracle: literal per-attribute posterior ratio product, in logs."""
    total = 0.0
    for p, a, pr in zip(p_row, assoc_row, prior):
        p = min(max(p, PROB_FLOOR), 1 - PROB_FLOOR)
        if a == 1.0:
            total += math.log(p / pr)
        else:
            total += math.log((1 - p) / (1 - pr))
    return total


class TestDapScores:
    def test_hand_value(self):
        scores = AttributeScoreMatrix(("i0",), ("a0", "a1"), np.array([[0.9, 0.8]]))
        assoc = AssociationMatrix(("z1", "z2"), ("a0", "a1"),
                                  np.array([[1.0, 1.0], [0.0, 0.0]]), binary=True)
        prior = AttributePrior(("a0", "a1"), np.array([0.5, 0.5]))
        out = dap_scores(scores, assoc, prior)
        assert out.values[0, 0] == pytest.approx(math.log(1.8) + math.log(1.6), abs=1e-12)
        assert out.values[0, 1] == pytest.approx(math.log(0.2) + math.log(0.4), abs=1e-12)

    def test_matches_product_oracle(self):
        rng = np.random.default_rng(21)
        n, m, c = 8, 6, 4
        scores = AttributeScoreMatrix(tuple(f"i{k}" for k in range(n)),
                                      tuple(f"a{k}" for k in range(m)),
                                      rng.random((n, m)))
        sig = rng.integers(0, 2, size=(c, m)).astype(float)
        sig[sig.sum(axis=1) == 0, 0] = 1.0
        assoc = AssociationMatrix(tuple(f"z{k}" for k in range(c)),
                                  scores.attributes, sig, binary=True)
        prior = AttributePrior(scores.attributes, rng.uniform(0.1, 0.9, m))
        out = dap_scores(scores, assoc, prior)
        for i in range(n):
            for j in range(c):
                want = brute_dap(scores.values[i], sig[j], prior.values)
                assert out.values[i, j] == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_saturated_posteriors_stay_finite(self):
        # posteriors of exactly 0 and 1 are clipped at the classifier's floor
        scores = AttributeScoreMatrix(("i0", "i1"), ("a0", "a1"),
                                      np.array([[0.0, 1.0], [1.0, 0.0]]))
        assoc = AssociationMatrix(("z1", "z2"), ("a0", "a1"),
                                  np.array([[1.0, 0.0], [0.0, 1.0]]), binary=True)
        prior = AttributePrior(("a0", "a1"), np.array([0.3, 0.6]))
        out = dap_scores(scores, assoc, prior)
        assert np.isfinite(out.values).all()
        for i in range(2):
            for j in range(2):
                want = brute_dap(scores.values[i], assoc.values[j], prior.values)
                assert out.values[i, j] == pytest.approx(want, rel=1e-12, abs=1e-12)
        assert out.values[0, 0] == pytest.approx(2 * math.log(PROB_FLOOR) - math.log(0.3 * 0.4),
                                                 abs=1e-3)

    def test_complement_symmetry_with_dyadic_scores(self):
        # flipping every attribute and complementing scores and prior leaves
        # the category scores unchanged; dyadic inputs make 1-p exact
        scores = AttributeScoreMatrix(("i0", "i1"), ("a0", "a1", "a2"),
                                      np.array([[0.25, 0.75, 0.5],
                                                [0.125, 0.875, 0.25]]))
        sig = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
        assoc = AssociationMatrix(("z0", "z1"), scores.attributes, sig, binary=True)
        prior = AttributePrior(scores.attributes, np.array([0.25, 0.5, 0.75]))

        flipped_scores = AttributeScoreMatrix(scores.instances, scores.attributes,
                                              1.0 - scores.values)
        flipped_assoc = AssociationMatrix(assoc.categories, assoc.attributes,
                                          1.0 - sig, binary=True)
        flipped_prior = AttributePrior(prior.attributes, 1.0 - prior.values)

        a = dap_scores(scores, assoc, prior)
        b = dap_scores(flipped_scores, flipped_assoc, flipped_prior)
        assert np.array_equal(a.values, b.values)

    def test_higher_match_scores_higher(self):
        # instance whose evidence matches z0's signature must prefer z0
        scores = AttributeScoreMatrix(("i0",), ("a0", "a1"), np.array([[0.9, 0.1]]))
        assoc = AssociationMatrix(("z0", "z1"), ("a0", "a1"),
                                  np.array([[1.0, 0.0], [0.0, 1.0]]), binary=True)
        prior = AttributePrior(("a0", "a1"), np.array([0.5, 0.5]))
        out = dap_scores(scores, assoc, prior)
        assert out.values[0, 0] > out.values[0, 1]

    def test_non_binary_associations_rejected(self):
        scores = AttributeScoreMatrix(("i0",), ("a0",), np.array([[0.5]]))
        assoc = AssociationMatrix(("z0",), ("a0",), np.array([[0.7]]))
        prior = AttributePrior(("a0",), np.array([0.5]))
        with pytest.raises(ValidationError):
            dap_scores(scores, assoc, prior)

    def test_attribute_axis_mismatch_rejected(self):
        scores = AttributeScoreMatrix(("i0",), ("a0",), np.array([[0.5]]))
        assoc = AssociationMatrix(("z0",), ("b0",), np.array([[1.0]]), binary=True)
        prior = AttributePrior(("a0",), np.array([0.5]))
        with pytest.raises(ValidationError):
            dap_scores(scores, assoc, prior)


class TestDirectSimilarity:
    def _known(self):
        return CategoryScoreMatrix(("i0",), ("k0", "k1"), np.array([[1.0, 0.5]]))

    def test_hand_value_equal_weights(self):
        rel = RelatednessMatrix(("n0",), ("k0", "k1"), np.array([[0.5, 0.5]]))
        out = direct_similarity_scores(self._known(), rel, top_k=2)
        assert out.values[0, 0] == pytest.approx(0.75, abs=1e-15)

    def test_weights_renormalized(self):
        rel = RelatednessMatrix(("n0",), ("k0", "k1"), np.array([[0.2, 0.6]]))
        out = direct_similarity_scores(self._known(), rel, top_k=2)
        assert out.values[0, 0] == pytest.approx(0.25 * 1.0 + 0.75 * 0.5, abs=1e-12)

    def test_top_one_tie_prefers_earlier_known(self):
        rel = RelatednessMatrix(("n0",), ("k0", "k1"), np.array([[0.5, 0.5]]))
        out = direct_similarity_scores(self._known(), rel, top_k=1)
        assert out.values[0, 0] == 1.0

    def test_top_k_capped_at_known_count(self):
        rel = RelatednessMatrix(("n0",), ("k0", "k1"), np.array([[0.5, 0.5]]))
        out = direct_similarity_scores(self._known(), rel, top_k=100)
        assert out.values[0, 0] == pytest.approx(0.75)

    def test_unrelatable_category_rejected(self):
        rel = RelatednessMatrix(("n0",), ("k0", "k1"), np.array([[0.0, 0.0]]))
        with pytest.raises(ValidationError):
            direct_similarity_scores(self._known(), rel, top_k=1)

    def test_column_mismatch_rejected(self):
        rel = RelatednessMatrix(("n0",), ("k0", "kX"), np.array([[0.5, 0.5]]))
        with pytest.raises(ValidationError):
            direct_similarity_scores(self._known(), rel)


class TestHierarchyTransfer:
    def _tax(self):
        return Taxonomy(
            parent={"root": None, "ursids": "root", "mustelids": "root",
                    "k0": "ursids", "k1": "ursids", "k2": "mustelids",
                    "novelspot": "ursids"},
            prob={"root": 1.0, "ursids": 0.5, "mustelids": 0.4,
                  "k0": 0.2, "k1": 0.2, "k2": 0.3, "novelspot": 0.1},
        )

    def _known(self):
        return CategoryScoreMatrix(("i0",), ("k0", "k1", "k2"),
                                   np.array([[0.4, 0.8, 0.1]]))

    def test_inner_averages_known_leaves_under_attachment(self):
        out = hierarchy_transfer(self._tax(), self._known(), {"n0": "ursids"},
                                 mode="inner")
        assert out.values[0, 0] == pytest.approx(0.6, abs=1e-15)

    def test_leaf_takes_closest_known_with_stable_tie(self):
        # k0 and k1 are both 2 steps from novelspot; earlier column wins
        out = hierarchy_transfer(self._tax(), self._known(), {"n0": "novelspot"},
                                 mode="leaf")
        assert out.values[0, 0] == 0.4

    def test_all_mode_averages_both_answers(self):
        leaf = hierarchy_transfer(self._tax(), self._known(), {"n0": "ursids"}, "leaf")
        inner = hierarchy_transfer(self._tax(), self._known(), {"n0": "ursids"}, "inner")
        both = hierarchy_transfer(self._tax(), self._known(), {"n0": "ursids"}, "all")
        want = 0.5 * (leaf.values + inner.values)
        assert np.allclose(both.values, want, atol=1e-15)

    def test_inner_climbs_until_known_leaves_found(self):
        # novelspot subtree holds no known leaf, so its parent's leaves apply
        out = hierarchy_transfer(self._tax(), self._known(), {"n0": "novelspot"},
                                 mode="inner")
        assert out.values[0, 0] == pytest.approx(0.6, abs=1e-15)

    def test_output_column_order_follows_attachments(self):
        out = hierarchy_transfer(self._tax(), self._known(),
                                 {"nB": "mustelids", "nA": "ursids"}, "inner")
        assert out.categories == ("nB", "nA")
        assert out.values[0, 0] == pytest.approx(0.1)

    def test_unknown_attachment_rejected(self):
        with pytest.raises(ValidationError):
            hierarchy_transfer(self._tax(), self._known(), {"n0": "ghost"})

    def test_attachments_are_trimmed_like_every_id(self):
        want = hierarchy_transfer(self._tax(), self._known(), {"n0": "novelspot"})
        got = hierarchy_transfer(self._tax(), self._known(), {"n0": " novelspot\t"})
        assert got.values.tobytes() == want.values.tobytes()
        with pytest.raises(ValidationError, match="^empty identifier$"):
            hierarchy_transfer(self._tax(), self._known(), {"n0": " "})

    def test_no_known_leaves_rejected(self):
        known = CategoryScoreMatrix(("i0",), ("x0", "x1"), np.array([[0.4, 0.8]]))
        with pytest.raises(ValidationError):
            hierarchy_transfer(self._tax(), known, {"n0": "ursids"})

    @pytest.mark.parametrize("known, attachments, message", [
        (("k0", "k1", "k2"), {"n0": 5},
         "attachments must map novel categories to taxonomy node names, got {'n0': 5}"),
        (("ursids", "mustelids"), {"n0": "novelspot"},
         "no known leaves reachable from 'novelspot'"),
    ], ids=["non_string_attachment", "only_inner_known"])
    def test_rejection_names_its_cause(self, known, attachments, message):
        scores = CategoryScoreMatrix(("i0",), known, np.full((1, len(known)), 0.5))
        with pytest.raises(ValidationError) as exc:
            hierarchy_transfer(self._tax(), scores, attachments)
        assert str(exc.value) == message

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValidationError):
            hierarchy_transfer(self._tax(), self._known(), {"n0": "ursids"},
                               mode="bogus")
