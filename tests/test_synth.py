import numpy as np
import pytest

from semtransfer import (
    AssociationMatrix,
    CorpusPlan,
    SynthConfig,
    ValidationError,
    binarize,
    build_corpus_index,
    corpus_plan_from_associations,
    dice_hitcount,
    gen_corpus,
    gen_dataset,
    mine_relatedness,
    tokenize,
    validate_split,
)


def count_hits(docs, *terms):
    """Oracle: documents containing every given term."""
    hits = 0
    for _, text in docs:
        toks = set(tokenize(text))
        if all(all(t in toks for t in tokenize(term)) for term in terms):
            hits += 1
    return hits


class TestSynthConfig:
    def test_pigeonhole_rejected(self):
        # 2 attributes give at most 3 distinct non-zero signatures
        with pytest.raises(ValidationError):
            SynthConfig(n_known=3, n_novel=1, n_attributes=2, feature_dim=2)

    def test_dim_smaller_than_attributes_rejected(self):
        with pytest.raises(ValidationError):
            SynthConfig(n_attributes=8, feature_dim=4)

    def test_flip_noise_range(self):
        for flip_noise in (1.0, -0.1, float("nan")):
            with pytest.raises(ValidationError):
                SynthConfig(flip_noise=flip_noise)

    def test_cluster_noise_range(self):
        for cluster_noise in (-0.1, float("nan"), float("inf")):
            with pytest.raises(ValidationError, match="cluster_noise"):
                SynthConfig(cluster_noise=cluster_noise)

    def test_signatures_too_crowded_to_sample_rejected(self):
        # 15 categories fit 4 attributes' 15 non-zero signatures, but random
        # draws almost never give all 15 distinct rows at once
        config = SynthConfig(n_known=10, n_novel=5, n_attributes=4, feature_dim=4)
        with pytest.raises(ValidationError, match="could not sample distinct category signatures"):
            gen_dataset(config)


class TestGenDataset:
    def test_same_seed_same_dataset(self):
        a = gen_dataset(SynthConfig(seed=3, flip_noise=0.1))
        b = gen_dataset(SynthConfig(seed=3, flip_noise=0.1))
        assert np.array_equal(a.features.values, b.features.values)
        assert a.labels == b.labels
        assert np.array_equal(a.associations.values, b.associations.values)

    def test_different_seed_different_features(self):
        a = gen_dataset(SynthConfig(seed=3))
        b = gen_dataset(SynthConfig(seed=4))
        assert not np.array_equal(a.features.values, b.features.values)

    def test_signatures_distinct_and_nonzero(self):
        ds = gen_dataset(SynthConfig(seed=5))
        sig = ds.associations.values
        assert len({tuple(r) for r in sig}) == sig.shape[0]
        assert (sig.sum(axis=1) > 0).all()

    def test_one_known_category_keeps_the_first_distinct_signatures(self):
        # a single known category makes every known column constant, so the
        # first draw of distinct non-zero rows is kept
        ds = gen_dataset(SynthConfig(n_known=1, n_novel=3, n_attributes=3, feature_dim=3))
        sig = ds.associations.values
        assert sig.shape == (4, 3)
        assert (sig.sum(axis=1) > 0).all()
        assert len({tuple(row) for row in sig}) == 4

    def test_known_columns_not_constant(self):
        # every attribute must have positive and negative known categories,
        # otherwise its classifier target is degenerate
        ds = gen_dataset(SynthConfig(seed=6))
        known = [ds.associations.category_index(c)
                 for c in ds.associations.categories
                 if c in ds.split.known_categories]
        cols = ds.associations.values[known].sum(axis=0)
        assert ((cols > 0) & (cols < len(known))).all()

    def test_noiseless_features_embed_signatures_exactly(self):
        cfg = SynthConfig(seed=7, flip_noise=0.0, cluster_noise=0.0,
                          n_attributes=10, feature_dim=12)
        ds = gen_dataset(cfg)
        for inst, cat in ds.labels.items():
            row = ds.features.values[ds.features.instances.index(inst)]
            sig = ds.associations.values[ds.associations.category_index(cat)]
            assert np.array_equal(row[:10], sig)
            assert np.all(row[10:] == 0.0)

    def test_split_sizes(self):
        cfg = SynthConfig(seed=8, n_known=4, n_novel=3, train_per_known=5,
                          test_per_novel=6, fewshot_per_novel=2,
                          distractor_per_known=1)
        ds = gen_dataset(cfg)
        assert len(ds.split.train_instances) == 4 * 5
        assert len(ds.split.fewshot_instances) == 3 * 2
        # test bucket holds novel tests plus known distractors
        assert len(ds.split.test_instances) == 3 * 6 + 4 * 1
        assert len(ds.features.instances) == 20 + 6 + 18 + 4

    def test_split_is_internally_consistent(self):
        ds = gen_dataset(SynthConfig(seed=9, fewshot_per_novel=2,
                                     distractor_per_known=3))
        assert validate_split(ds.split, ds.associations) == []
        for inst, cat in ds.split.test_instances.items():
            assert ds.labels[inst] == cat


class TestCorpusPlan:
    def test_joint_exceeding_category_count_rejected(self):
        with pytest.raises(ValidationError, match="infeasible"):
            CorpusPlan(category_counts={"c": 2}, attribute_counts={"a": 5},
                       joint_counts={("c", "a"): 3})

    def test_joint_exceeding_attribute_count_rejected(self):
        with pytest.raises(ValidationError, match="infeasible"):
            CorpusPlan(category_counts={"c": 9}, attribute_counts={"a": 2},
                       joint_counts={("c", "a"): 3})

    def test_joint_sums_checked_per_term(self):
        # each pair fits alone, but together they exceed the category count
        with pytest.raises(ValidationError, match="infeasible"):
            CorpusPlan(category_counts={"c": 3},
                       attribute_counts={"a": 2, "b": 2},
                       joint_counts={("c", "a"): 2, ("c", "b"): 2})

    def test_shared_tokens_rejected(self):
        with pytest.raises(ValidationError, match="share token"):
            CorpusPlan(category_counts={"polar bear": 1},
                       attribute_counts={"bear claw": 1})

    def test_unknown_joint_terms_rejected(self):
        with pytest.raises(ValidationError):
            CorpusPlan(category_counts={"c": 1}, attribute_counts={"a": 1},
                       joint_counts={("ghost", "a"): 1})

    @pytest.mark.parametrize("plan, error", [
        ({"category_counts": {}, "attribute_counts": {"a": 1}},
         "plan needs categories and attributes"),
        ({"category_counts": {"c": -1}, "attribute_counts": {"a": 1}},
         "negative category count for 'c'"),
        ({"category_counts": {"c": 1}, "attribute_counts": {"a": -1}},
         "negative attribute count for 'a'"),
        ({"category_counts": {"c": 1}, "attribute_counts": {"a": 1}, "filler_docs": -1},
         "filler_docs must be >= 0"),
        ({"category_counts": {"c": 1}, "attribute_counts": {"a": 1},
          "joint_counts": {("c", "a"): -1}}, r"negative joint count for \('c', 'a'\)"),
        ({"category_counts": {"c": 1}, "attribute_counts": {"a": 1},
          "joint_counts": {("c", "ghost"): 1}}, "joint pair uses unknown attribute 'ghost'"),
        ({"category_counts": {"c": 1, "!?": 1}, "attribute_counts": {"a": 1}},
         r"plan term has no tokens: '!\?'"),
        ({"category_counts": {"c": 1}, "attribute_counts": {"Filler": 1}, "filler_docs": 1},
         "plan terms collide with the filler token"),
    ], ids=["empty", "category_count", "attribute_count", "filler_docs", "joint_count",
            "joint_attribute", "no_tokens", "filler_token"])
    def test_malformed_plan_rejected(self, plan, error):
        with pytest.raises(ValidationError, match=error):
            CorpusPlan(**plan)

    def test_dice_of_unplanned_term_rejected(self):
        plan = CorpusPlan(category_counts={"c": 1}, attribute_counts={"a": 1})
        with pytest.raises(ValidationError, match="unknown category 'a'"):
            plan.dice("a", "a")
        with pytest.raises(ValidationError, match="unknown attribute 'c'"):
            plan.dice("c", "c")

    def test_plan_without_documents(self):
        # no documents: Dice is 0, and no corpus realizes the plan
        plan = CorpusPlan(category_counts={"c": 0}, attribute_counts={"a": 0})
        assert plan.dice("c", "a") == 0.0
        with pytest.raises(ValidationError, match="plan produces an empty corpus"):
            gen_corpus(plan)

    def test_plan_dice_closed_form(self):
        plan = CorpusPlan(category_counts={"c": 4}, attribute_counts={"a": 5},
                          joint_counts={("c", "a"): 3})
        assert plan.dice("c", "a") == pytest.approx(2 * 3 / (4 + 5), abs=0)


class TestGenCorpus:
    def _plan(self):
        return CorpusPlan(
            category_counts={"c0": 6, "c1": 4},
            attribute_counts={"a0": 5, "a1": 3},
            joint_counts={("c0", "a0"): 3, ("c0", "a1"): 2, ("c1", "a0"): 1},
            filler_docs=4,
            seed=13,
        )

    def test_realizes_counts_exactly(self):
        plan = self._plan()
        docs = gen_corpus(plan)
        for c, n in plan.category_counts.items():
            assert count_hits(docs, c) == n
        for a, n in plan.attribute_counts.items():
            assert count_hits(docs, a) == n
        for (c, a), n in plan.joint_counts.items():
            assert count_hits(docs, c, a) == n
        # unplanned pairs never co-occur
        assert count_hits(docs, "c1", "a1") == 0

    def test_mined_dice_equals_plan_dice_exactly(self):
        plan = self._plan()
        idx = build_corpus_index(gen_corpus(plan))
        for c in plan.category_counts:
            for a in plan.attribute_counts:
                assert dice_hitcount(idx, c, a) == plan.dice(c, a)

    def test_deterministic_and_ids_sequential(self):
        plan = self._plan()
        d1, d2 = gen_corpus(plan), gen_corpus(plan)
        assert d1 == d2
        assert [doc_id for doc_id, _ in d1] == [f"d{i:05d}" for i in range(len(d1))]

    def test_fillers_do_not_change_dice(self):
        lean = CorpusPlan(category_counts={"c0": 4}, attribute_counts={"a0": 4},
                          joint_counts={("c0", "a0"): 2})
        fat = CorpusPlan(category_counts={"c0": 4}, attribute_counts={"a0": 4},
                         joint_counts={("c0", "a0"): 2}, filler_docs=50)
        i1 = build_corpus_index(gen_corpus(lean))
        i2 = build_corpus_index(gen_corpus(fat))
        assert dice_hitcount(i1, "c0", "a0") == dice_hitcount(i2, "c0", "a0")


class TestPlanFromAssociations:
    def _assoc(self):
        sig = np.array([
            [1.0, 0.0, 1.0],
            [0.0, 1.0, 1.0],
            [1.0, 1.0, 0.0],
        ])
        return AssociationMatrix(("c0", "c1", "c2"), ("a0", "a1", "a2"), sig,
                                 binary=True)

    def test_threshold_recovers_associations_exactly(self):
        assoc = self._assoc()
        plan = corpus_plan_from_associations(assoc, docs_per_pair=3)
        idx = build_corpus_index(gen_corpus(plan))
        rel = mine_relatedness(idx, assoc.categories, assoc.attributes, "dice_hit")
        recovered = binarize(rel, "global_threshold", threshold=0.05)
        assert np.array_equal(recovered.values, assoc.values)

    def test_associated_pairs_score_inverse_degree_sum(self):
        assoc = self._assoc()
        plan = corpus_plan_from_associations(assoc, docs_per_pair=5)
        idx = build_corpus_index(gen_corpus(plan))
        # deg(c0) = 2, deg(a0) = 2: dice = 2/(2+2)
        assert dice_hitcount(idx, "c0", "a0") == pytest.approx(0.5, abs=0)

    def test_non_binary_rejected(self):
        soft = AssociationMatrix(("c0",), ("a0",), np.array([[0.5]]))
        with pytest.raises(ValidationError):
            corpus_plan_from_associations(soft)
