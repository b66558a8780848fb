import json

import numpy as np
import pytest

import semtransfer.io as sio
from semtransfer import (
    AssociationMatrix,
    AttributeScoreMatrix,
    CategoryScoreMatrix,
    DatasetSplit,
    FeatureMatrix,
    ParseError,
    RelatednessMatrix,
)


class TestMatrixTsv:
    def test_round_trip_unit_interval_exact_to_1e9(self, tmp_path):
        rng = np.random.default_rng(11)
        values = rng.random((7, 5))
        m = AttributeScoreMatrix(tuple(f"i{k}" for k in range(7)),
                                 tuple(f"a{k}" for k in range(5)), values)
        path = tmp_path / "scores.tsv"
        sio.write_attribute_scores(path, m)
        back = sio.read_attribute_scores(path)
        assert back.instances == m.instances
        assert back.attributes == m.attributes
        # 9 significant digits keep [0, 1) values within 1e-9 absolute
        assert np.abs(back.values - m.values).max() <= 1e-9

    def test_round_trip_unbounded_values_relative(self, tmp_path):
        rng = np.random.default_rng(12)
        values = rng.normal(0, 100, (4, 6))
        f = FeatureMatrix(tuple(f"i{k}" for k in range(4)), values)
        path = tmp_path / "feat.tsv"
        sio.write_features(path, f)
        back = sio.read_features(path)
        assert np.allclose(back.values, values, rtol=1e-8, atol=0)

    def test_cells_match_format_number(self, tmp_path):
        values = np.array([[0.0, -0.0, 5e-324, 2.2250738585072014e-308, np.inf],
                           [-np.inf, np.nan, 1.2345678949e300, -9.87654321e-300, 1 / 3],
                           [1e16, 123456789.5, -1e-5, 0.1, 2.0**60]])
        path = tmp_path / "m.tsv"
        sio.write_matrix_tsv(path, ["r0", "r1", "r2"], ["c0", "c1", "c2", "c3", "c4"], values)
        rows = path.read_text(encoding="utf-8").splitlines()[1:]
        want = ["\t".join([rid] + [sio.format_number(v) for v in row])
                for rid, row in zip(["r0", "r1", "r2"], values)]
        assert rows == want

    def test_header_first_cell_empty(self, tmp_path):
        path = tmp_path / "m.tsv"
        sio.write_matrix_tsv(path, ["r"], ["c"], np.array([[0.5]]))
        header = [ln for ln in path.read_text().splitlines()
                  if not ln.startswith("#")][0]
        assert header.startswith("\t")

    def test_tags_round_trip(self, tmp_path):
        rel = RelatednessMatrix(("c",), ("a",), np.array([[0.25]]), measure="esa")
        path = tmp_path / "rel.tsv"
        sio.write_relatedness(path, rel)
        assert sio.read_relatedness(path).measure == "esa"

        assoc = AssociationMatrix(("c",), ("a",), np.array([[1.0]]), binary=True)
        path2 = tmp_path / "assoc.tsv"
        sio.write_association(path2, assoc)
        assert sio.read_association(path2).binary is True

    def test_missing_file_is_parse_error(self, tmp_path):
        with pytest.raises(ParseError):
            sio.read_matrix_tsv(tmp_path / "nope.tsv")

    def test_ragged_row_is_parse_error(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("\ta\tb\nr\t0.5\n")
        with pytest.raises(ParseError):
            sio.read_matrix_tsv(path)

    @pytest.mark.parametrize("rows, where", [
        ("p\t1\t2\nq\t3\nr\t4\t5\n", "4: expected 3 cells, got 2"),
        ("p\t1\nq\t3\n", "3: expected 3 cells, got 2"),
        ("p\t1\t2\t3\nq\t3\t4\t5\n", "3: expected 3 cells, got 4"),
        ("p\t1\t2\nq\n", "4: expected 3 cells, got 1"),
        ("p\t1\t2\n\nq\t1\t\n", "5: not a number: ''"),
        ("p\t1\t2\nq\tx\t\n", "4: not a number: 'x'"),
    ])
    def test_first_bad_line_is_named(self, tmp_path, rows, where):
        path = tmp_path / "bad.tsv"
        path.write_text("# type=features\n\ta\tb\n" + rows)
        with pytest.raises(ParseError, match=f"^{path}:{where}$"):
            sio.read_matrix_tsv(path)

    def test_cells_read_as_float_reads_them(self, tmp_path):
        rng = np.random.default_rng(3)
        big = rng.normal(size=40) * 10.0 ** rng.integers(-300, 300, 40)
        cells = ["-0", "nan", "-inf", "Infinity", " 2.5", "7 ", "1e-320", "+.5", "5.",
                 *map(repr, big.tolist())]
        path = tmp_path / "m.tsv"
        path.write_text("\ta\n" + "".join(f"r{i}\t{c}\n" for i, c in enumerate(cells)))
        _, _, values, _ = sio.read_matrix_tsv(path)
        want = np.array([[float(c)] for c in cells])
        assert np.array_equal(values.view(np.int64), want.view(np.int64))

    def test_non_numeric_cell_is_parse_error(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("\ta\nr\tfoo\n")
        with pytest.raises(ParseError):
            sio.read_matrix_tsv(path)

    def test_bad_header_is_parse_error(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("id\ta\nr\t0.5\n")
        with pytest.raises(ParseError):
            sio.read_matrix_tsv(path)


class TestMatrixKinds:
    MATRICES = [
        AssociationMatrix(("c", "d"), ("a",), [[1.0], [0.0]], binary=False),
        AttributeScoreMatrix(("i",), ("a", "b"), [[0.25, 1.0]]),
        FeatureMatrix(("i", "j"), [[-1.5, 2.0, 1e10], [0.0, 3.0, -7.0]]),
        RelatednessMatrix(("c",), ("a", "b"), [[0.5, 2.0]], measure="dice_hit"),
        CategoryScoreMatrix(("i",), ("c",), [[-0.5]]),
    ]

    @pytest.mark.parametrize("m", MATRICES, ids=lambda m: m.KIND)
    def test_one_reader_and_writer_round_trip_every_kind(self, tmp_path, m):
        path = tmp_path / "m.tsv"
        sio.write_matrix(path, m)
        text = path.read_text()
        assert text.startswith(f"# type={m.KIND}\n")
        back = sio.read_matrix(path, type(m))
        axes, tags = m.layout()
        for f in axes + tags:
            assert getattr(back, f.name) == getattr(m, f.name)
        assert np.array_equal(back.values, m.values)
        sio.write_matrix(path, back)
        assert path.read_text() == text

    def test_tags_of_each_kind(self, tmp_path):
        tags = []
        for m in self.MATRICES:
            sio.write_matrix(tmp_path / "m.tsv", m)
            tags.append([ln for ln in (tmp_path / "m.tsv").read_text().splitlines()
                         if ln.startswith("#")])
        assert tags == [["# type=association", "# binary=false"], ["# type=attribute_scores"],
                        ["# type=features"], ["# type=relatedness", "# measure=dice_hit"],
                        ["# type=category_scores", "# normalized=false"]]

    def test_features_number_their_columns(self, tmp_path):
        sio.write_features(tmp_path / "f.tsv", self.MATRICES[2])
        assert (tmp_path / "f.tsv").read_text().splitlines()[1] == "\tx0\tx1\tx2"

    def test_untagged_measure_is_omitted_and_reads_back_untagged(self, tmp_path):
        path = tmp_path / "rel.tsv"
        sio.write_relatedness(path, RelatednessMatrix(("c",), ("a",), [[0.5]]))
        assert path.read_text() == "# type=relatedness\n\ta\nc\t0.5\n"
        assert sio.read_relatedness(path).measure is None
        path.write_text("\ta\nc\t0.5\n")
        assert sio.read_matrix(path, RelatednessMatrix).measure is None

    def test_type_of_another_kind_is_parse_error(self, tmp_path):
        path = tmp_path / "rel.tsv"
        sio.write_relatedness(path, RelatednessMatrix(("c",), ("a",), [[0.5]], measure="esa"))
        with pytest.raises(ParseError, match="type=relatedness"):
            sio.read_association(path)
        path.write_text("\ta\nc\t0.5\n")
        assert sio.read_association(path).values.tolist() == [[0.5]]

    def test_bad_binary_tag_is_parse_error(self, tmp_path):
        path = tmp_path / "assoc.tsv"
        path.write_text("# binary=yes\n\ta\nc\t1\n")
        with pytest.raises(ParseError, match="assoc.tsv: expected true/false"):
            sio.read_matrix(path, AssociationMatrix)


@pytest.mark.parametrize("reader, name", [
    (sio.read_matrix_tsv, "m.tsv"), (sio.read_labels, "labels.tsv"),
    (sio.read_corpus_jsonl, "corpus.jsonl"), (sio.read_json, "doc.json"),
])
def test_invalid_utf8_is_parse_error(tmp_path, reader, name):
    path = tmp_path / name
    path.write_bytes(b'{"id": "d\xff"}\n')
    with pytest.raises(ParseError, match="UTF-8"):
        reader(path)


@pytest.mark.parametrize("reader, name, text", [
    (sio.read_matrix_tsv, "m.tsv", "\ta\nr\t0.5\n"),
    (sio.read_labels, "labels.tsv", "i0\tc0\n"),
    (lambda path: sio.read_taxonomy(path, path.with_name("probs.tsv")), "edges.tsv", "c\troot\n"),
    (sio.read_corpus_jsonl, "corpus.jsonl", '{"id": "d", "text": "t"}\n'),
    (sio.read_json, "doc.json", '{"a": 1}\n'),
], ids=["matrix", "labels", "taxonomy", "jsonl", "json"])
def test_byte_order_mark_is_parse_error(tmp_path, reader, name, text):
    # kept, the mark would become part of the first identifier
    (tmp_path / "probs.tsv").write_text("root\t1\nc\t0.5\n")
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    reader(path)
    path.write_text(text, encoding="utf-8-sig")
    with pytest.raises(ParseError, match=f"{name}: starts with a UTF-8 byte-order mark"):
        reader(path)


class TestLabels:
    def test_round_trip(self, tmp_path):
        labels = {"i0": "cat", "i1": "dog"}
        path = tmp_path / "labels.tsv"
        sio.write_labels(path, labels)
        assert sio.read_labels(path) == labels

    def test_duplicate_instance_rejected(self, tmp_path):
        path = tmp_path / "labels.tsv"
        path.write_text("i0\tcat\ni0\tdog\n")
        with pytest.raises(ParseError):
            sio.read_labels(path)


class TestCorpusJsonl:
    def test_round_trip(self, tmp_path):
        docs = [("d0", "a brown bear"), ("d1", "sea otter")]
        path = tmp_path / "corpus.jsonl"
        sio.write_corpus_jsonl(path, docs)
        assert sio.read_corpus_jsonl(path) == docs

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"id": "d0"}\n')
        with pytest.raises(ParseError):
            sio.read_corpus_jsonl(path)

    @pytest.mark.parametrize("line", ['{"id": "bear/0", "text": null}', '{"id": 5, "text": "x"}',
                                      '{"id": "d1", "text": ["sea", "otter"]}'])
    def test_non_string_field_rejected(self, tmp_path, line):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"id": "d0", "text": "a brown bear"}\n' + line + "\n")
        with pytest.raises(ParseError, match=r"corpus.jsonl:2: corpus lines need string"):
            sio.read_corpus_jsonl(path)

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text("{broken\n")
        with pytest.raises(ParseError):
            sio.read_corpus_jsonl(path)

    @pytest.mark.parametrize("sep", ["\u2028", "\u0085", "\u2029"])
    def test_lines_end_at_newline_only(self, tmp_path, sep):
        # str.splitlines() would also end a line at these, inside a JSON string
        path = tmp_path / "corpus.jsonl"
        path.write_bytes((f'{{"id": "d0", "text": "bear{sep}fur"}}\r\n'
                          f'\n{{"id": "d1", "text": "{sep}"}}\n').encode("utf-8"))
        assert sio.read_corpus_jsonl(path) == [("d0", f"bear{sep}fur"), ("d1", sep)]

    def test_error_names_the_newline_counted_line(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"id": "d0", "text": "a\u2028b"}\n{broken\n', encoding="utf-8")
        with pytest.raises(ParseError, match=r"corpus.jsonl:2: invalid JSON"):
            sio.read_corpus_jsonl(path)


class TestTaxonomyFiles:
    def test_round_trip(self, tmp_path):
        edges, probs = tmp_path / "edges.tsv", tmp_path / "probs.tsv"
        edges.write_text("mid\troot\nleaf1\tmid\nleaf2\tmid\n")
        probs.write_text("root\t1\nmid\t0.25\nleaf1\t0.0625\nleaf2\t0.0625\n")
        tax = sio.read_taxonomy(edges, probs)
        assert tax.root == "root"
        assert tax.parent["leaf1"] == "mid"
        assert tax.prob["mid"] == 0.25

    def test_edge_order_does_not_matter(self, tmp_path):
        probs = tmp_path / "probs.tsv"
        probs.write_text("root\t1\ng0\t0.5\nk00\t0.25\nk01\t0.25\n")
        read = []
        for name, text in (("up.tsv", "g0\troot\nk00\tg0\nk01\tg0\n"),
                           ("down.tsv", "k00\tg0\nk01\tg0\ng0\troot\n")):
            (tmp_path / name).write_text(text)
            tax = sio.read_taxonomy(tmp_path / name, probs)
            read.append((tax.parent, tax.prob, tax.root, tax.leaf_descendants("root")))
        assert read[0] == read[1]
        (tmp_path / "twice.tsv").write_text("k00\tg0\ng0\troot\nk00\troot\n")
        with pytest.raises(ParseError, match=r"twice.tsv:3: duplicate child 'k00'"):
            sio.read_taxonomy(tmp_path / "twice.tsv", probs)

    def test_bad_edge_line_rejected(self, tmp_path):
        edges, probs = tmp_path / "edges.tsv", tmp_path / "probs.tsv"
        edges.write_text("leaf\n")
        probs.write_text("leaf\t0.5\n")
        with pytest.raises(ParseError):
            sio.read_taxonomy(edges, probs)

    def test_duplicate_probability_node_rejected(self, tmp_path):
        edges, probs = tmp_path / "edges.tsv", tmp_path / "probs.tsv"
        edges.write_text("x\troot\n")
        probs.write_text("root\t1\nx\t0.2\nx\t0.1\n")
        with pytest.raises(ParseError, match=r"probs.tsv:3: duplicate node 'x'"):
            sio.read_taxonomy(edges, probs)


class TestModelJson:
    def test_round_trip_exact(self, tmp_path):
        from semtransfer.classify import AttributeModel

        rng = np.random.default_rng(5)
        model = AttributeModel(
            attributes=("a0", "a1"),
            weights=rng.normal(size=(2, 3)),
            biases=rng.normal(size=2),
            feature_mean=rng.normal(size=3),
            feature_std=np.abs(rng.normal(size=3)) + 0.1,
            metadata={"iterations": [5, 9]},
        )
        path = tmp_path / "model.json"
        sio.save_model(path, model)
        back = sio.load_model(path)
        # parameters survive the JSON trip bit-for-bit
        assert np.array_equal(back.weights, model.weights)
        assert np.array_equal(back.biases, model.biases)
        assert np.array_equal(back.feature_mean, model.feature_mean)
        assert np.array_equal(back.feature_std, model.feature_std)
        assert back.attributes == model.attributes
        assert back.metadata["iterations"] == [5, 9]

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"attributes": ["a"]}))
        with pytest.raises(ParseError):
            sio.load_model(path)


class TestSplitJson:
    def test_round_trip(self, tmp_path):
        split = DatasetSplit(
            known_categories={"k0"},
            novel_categories={"n0"},
            train_instances={"i0": "k0"},
            test_instances={"i1": "n0"},
            fewshot_instances={"i2": "n0"},
        )
        path = tmp_path / "split.json"
        sio.write_split(path, split)
        back = sio.read_split(path)
        assert back.known_categories == split.known_categories
        assert back.novel_categories == split.novel_categories
        assert back.train_instances == split.train_instances
        assert back.test_instances == split.test_instances
        assert back.fewshot_instances == split.fewshot_instances

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "split.json"
        path.write_text(json.dumps({"known_categories": []}))
        with pytest.raises(ParseError):
            sio.read_split(path)


class TestDeterministicSerialization:
    def test_same_matrix_same_bytes(self, tmp_path):
        rng = np.random.default_rng(3)
        values = rng.random((6, 4))
        m = CategoryScoreMatrix(tuple(f"i{k}" for k in range(6)),
                                tuple(f"c{k}" for k in range(4)), values)
        p1, p2 = tmp_path / "a.tsv", tmp_path / "b.tsv"
        sio.write_category_scores(p1, m)
        sio.write_category_scores(p2, m)
        assert p1.read_bytes() == p2.read_bytes()
