"""Tests for cohort assembly, embedding I/O, and attribute aggregation."""

import csv
import struct
from collections import Counter

import numpy as np
import pytest
from conftest import attribute_rows, attribute_table, cohort_of, profile_rows
from hypothesis import example, given, settings
from hypothesis import strategies as st

from faceaudit.cohort import (
    WRITE_CELLS,
    WRITE_RECORDS,
    aggregate_profiles,
    aggregate_table,
    build_cohort,
    csv_cells,
    load_cohort,
    read_attributes,
    read_embeddings_binary,
    read_embeddings_text,
    write_attributes,
    write_embeddings_binary,
)
from faceaudit.errors import DataError, SchemaError
from faceaudit.schema import AttributeSchema, Variable, default_schema


def _records(n_identities=3, images_each=2, dim=8, seed=0):
    """(image ids, identity ids, vectors) of an embedding set in cohort order."""
    rng = np.random.default_rng(seed)
    images = [(i, k) for i in range(n_identities) for k in range(images_each)]
    return (
        tuple(f"id{i}_img{k}" for i, k in images),
        tuple(f"id{i}" for i, _ in images),
        rng.normal(size=(len(images), dim)).astype(np.float32),
    )


def _cohort(**kwargs):
    return build_cohort(*_records(**kwargs))


class TestEmbeddingRecord:
    """Each record (row) of an embedding set, as build_cohort checks it."""

    def test_casts_to_float32(self):
        cohort = build_cohort(("a",), ("x",), np.arange(4, dtype=np.float64)[None])
        assert cohort.vectors.dtype == np.float32

    def test_rejects_matrix(self):
        with pytest.raises(DataError, match="'a' must be a 1-d vector"):
            build_cohort(("a",), ("x",), np.zeros((1, 2, 2)))

    def test_rejects_empty(self):
        with pytest.raises(DataError, match="'a' must be a 1-d vector"):
            build_cohort(("a",), ("x",), np.zeros((1, 0)))

    def test_rejects_non_finite(self):
        with pytest.raises(DataError, match="^embedding for 'b' contains non-finite values$"):
            build_cohort(("a", "b", "c"), ("x",) * 3, [[1.0, 2.0], [1.0, np.nan], [np.inf, 0]])


def _write_per_record(path, cohort):
    """The binary writer with five writes per record, as it was before it
    wrote blocks: the reference of ``write_embeddings_binary``."""
    rows = cohort.vectors.astype("<f4", copy=False)
    identity_ids = map(cohort.identities.__getitem__, cohort.identity_codes.tolist())
    with open(path, "wb") as fh:
        fh.write(b"FREB")
        fh.write(bytes([1]))
        fh.write(struct.pack("<II", *rows.shape))
        for image_id, identity_id, row in zip(cohort.image_ids, identity_ids, rows):
            for text in (image_id, identity_id):
                raw = text.encode("utf-8")
                fh.write(struct.pack("<H", len(raw)))
                fh.write(raw)
            fh.write(row.tobytes())


class TestBinaryFormat:
    @pytest.mark.parametrize(
        "n_images",
        [1, WRITE_RECORDS - 1, WRITE_RECORDS, WRITE_RECORDS + 1, 2 * WRITE_RECORDS + 3],
    )
    def test_blocks_write_the_per_record_bytes(self, tmp_path, n_images):
        # multi-byte ids of varying length, so records differ in size across a block seam
        image_ids = [f"{'ø' * (k % 5)}képmás_{k:05d}" for k in range(n_images)]
        identity_ids = [f"személy_{'€' * (k % 3)}{k % 37}" for k in range(n_images)]
        vectors = np.random.default_rng(n_images).normal(size=(n_images, 3))
        cohort = build_cohort(image_ids, identity_ids, vectors)
        blocks, reference = tmp_path / "blocks.freb", tmp_path / "reference.freb"
        write_embeddings_binary(blocks, cohort)
        _write_per_record(reference, cohort)
        assert blocks.read_bytes() == reference.read_bytes()

    @pytest.mark.parametrize("at", [0, WRITE_RECORDS + 1])
    def test_id_over_65535_bytes_rejected(self, tmp_path, at):
        image_ids = [f"img{k:05d}" for k in range(WRITE_RECORDS + 2)]
        image_ids[at] = f"img{at:05d}" + "é" * 32766  # 65,540 bytes
        cohort = build_cohort(image_ids, ["x"] * len(image_ids), np.ones((len(image_ids), 2)))
        with pytest.raises(DataError, match="^id too long for format: 'img"):
            write_embeddings_binary(tmp_path / "long.freb", cohort)

    def test_id_of_65535_bytes_round_trips(self, tmp_path):
        longest = "a" + "é" * 32767  # 65,535 bytes
        path = tmp_path / "longest.freb"
        write_embeddings_binary(path, build_cohort((longest, "b"), ("x", "x"), np.ones((2, 2))))
        assert read_embeddings_binary(path)[0] == (longest, "b")

    def test_round_trip(self, tmp_path):
        image_ids, identity_ids, vectors = records = _records()
        path = tmp_path / "emb.freb"
        write_embeddings_binary(path, build_cohort(*records))
        loaded = read_embeddings_binary(path)
        assert loaded[:2] == (image_ids, identity_ids)
        assert loaded[2].tobytes() == vectors.tobytes()

    def test_byte_stability(self, tmp_path):
        cohort = _cohort()
        a, b = tmp_path / "a.freb", tmp_path / "b.freb"
        write_embeddings_binary(a, cohort)
        write_embeddings_binary(b, cohort)
        assert a.read_bytes() == b.read_bytes()

    def test_unicode_ids(self, tmp_path):
        cohort = cohort_of([("képmás_01", "személy", np.ones(3, dtype=np.float32))])
        path = tmp_path / "u.freb"
        write_embeddings_binary(path, cohort)
        image_ids, identity_ids, _ = read_embeddings_binary(path)
        assert image_ids == ("képmás_01",)
        assert identity_ids == ("személy",)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.freb"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(DataError):
            read_embeddings_binary(path)

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "full.freb"
        write_embeddings_binary(path, _cohort(n_identities=2, images_each=2))
        cut = tmp_path / "cut.freb"
        cut.write_bytes(path.read_bytes()[:-7])
        with pytest.raises(DataError):
            read_embeddings_binary(cut)

    def test_oversized_header_rejected(self, tmp_path):
        # the header's count and dimension must fit the bytes that follow
        path = tmp_path / "huge.freb"
        path.write_bytes(b"FREB\x01" + struct.pack("<II", 2**32 - 1, 2**32 - 1))
        with pytest.raises(DataError, match="truncated or corrupt"):
            read_embeddings_binary(path)

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "pad.freb"
        write_embeddings_binary(path, _cohort(n_identities=1, images_each=2))
        path.write_bytes(path.read_bytes() + b"\x00\x00")
        with pytest.raises(DataError):
            read_embeddings_binary(path)

    def test_non_finite_names_first_image(self, tmp_path):
        marker = struct.pack("<f", 7.0)
        vectors = np.ones((4, 3), dtype=np.float32)
        vectors[[1, 3], 2] = 7.0
        path = tmp_path / "nan.freb"
        write_embeddings_binary(path, build_cohort(("a", "b", "c", "d"), ("x",) * 4, vectors))
        path.write_bytes(path.read_bytes().replace(marker, struct.pack("<f", np.nan)))
        with pytest.raises(DataError, match="^embedding for 'b' contains non-finite values$"):
            load_cohort(path)

    def test_refuses_empty_write(self, tmp_path):
        # a cohort is never empty, so no empty embedding file can be written
        with pytest.raises(DataError, match="^no embedding records$"):
            write_embeddings_binary(tmp_path / "e.freb", build_cohort((), (), np.empty((0, 3))))
        assert not (tmp_path / "e.freb").exists()


class TestTextFormat:
    def test_reads_csv(self, tmp_path):
        path = tmp_path / "emb.csv"
        path.write_text("a,x,1.0,2.0\nb,x,3.0,4.0\n", encoding="utf-8")
        image_ids, identity_ids, vectors = read_embeddings_text(path)
        assert image_ids == ("a", "b")
        assert identity_ids == ("x", "x")
        np.testing.assert_allclose(vectors[1], [3.0, 4.0])

    def test_components_cast_from_float(self, tmp_path):
        # float() first, then the float32 cast: the bits of the old reader
        cells = ["0.1", "1e-50", "-3.4028235e38", "16777217", " 2.5"]
        path = tmp_path / "emb.csv"
        path.write_text("a,x," + ",".join(cells) + "\n", encoding="utf-8")
        want = np.array([float(c) for c in cells], dtype=np.float32)
        assert read_embeddings_text(path)[2].tobytes() == want[None].tobytes()

    def test_skips_blank_lines(self, tmp_path):
        path = tmp_path / "emb.csv"
        path.write_text("a,x,1.0\n\nb,x,2.0\n", encoding="utf-8")
        assert read_embeddings_text(path)[0] == ("a", "b")

    def test_blank_file_has_no_records(self, tmp_path):
        path = tmp_path / "emb.csv"
        path.write_text("\n\n", encoding="utf-8")
        assert read_embeddings_text(path)[0] == ()
        with pytest.raises(DataError, match=f"^{path}: no embedding records$"):
            load_cohort(path)

    def test_short_row_rejected(self, tmp_path):
        path = tmp_path / "emb.csv"
        path.write_text("a,x\n", encoding="utf-8")
        with pytest.raises(DataError):
            read_embeddings_text(path)

    def test_bad_component_rejected(self, tmp_path):
        path = tmp_path / "emb.csv"
        path.write_text("a,x,1.0,oops\n", encoding="utf-8")
        with pytest.raises(DataError):
            read_embeddings_text(path)

    @pytest.mark.parametrize("cell", ["1_0", "_1", "0.5_", "1e1_0"])
    def test_underscore_component_rejected(self, tmp_path, cell):
        # float() reads "1_0" as 10.0
        path = tmp_path / "emb.csv"
        path.write_text(f"b0,b,0.5,0.5\na0,a,{cell},0.5\n", encoding="utf-8")
        with pytest.raises(DataError, match=f"^{path}:2: bad vector component: .*'{cell}'"):
            read_embeddings_text(path)

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "emb.csv"
        path.write_text("a,x,1.0,2.0\nb,x,3.0\n", encoding="utf-8")
        with pytest.raises(DataError, match=f"^{path}:2: dimension mismatch: 'b' has 1, expected 2$"):
            read_embeddings_text(path)

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "emb.csv"
        path.write_text("a,x,1.0,2.0\nb,x,nan,4.0\n", encoding="utf-8")
        with pytest.raises(DataError, match="^embedding for 'b' contains non-finite values$"):
            load_cohort(path)

    def test_load_cohort_sniffs_format(self, tmp_path):
        binary = tmp_path / "b.freb"
        write_embeddings_binary(binary, _cohort(n_identities=1, images_each=2))
        text = tmp_path / "t.csv"
        text.write_text("a,x,1.0,2.0\n", encoding="utf-8")
        assert len(load_cohort(binary)) == 2
        assert len(load_cohort(text)) == 1


class TestAttributeCsv:
    def test_round_trip_with_names(self, tmp_path):
        schema = default_schema()
        rows = {
            "img0": {"gender": 1.0, "ethnicity": 2.0, "age": 31.5, "blur": 0.25, "eyes_occluded": 1.0},
            "img1": {"gender": 0.0, "yaw": -12.5},
        }
        path = tmp_path / "attrs.csv"
        write_attributes(path, attribute_table(rows, schema), schema)
        text = path.read_text(encoding="utf-8")
        assert "woman" in text and "caucasian" in text
        loaded = read_attributes(path, schema)
        assert loaded.image_ids == ("img0", "img1")
        assert attribute_rows(loaded, schema) == rows

    def test_quoted_cells_match_csv_writer(self, tmp_path):
        # ids and level labels holding the delimiter, a quote or a line
        # break are quoted as csv.writer quotes them, a missing value is
        # an empty cell, and all is read back
        schema = AttributeSchema(
            variables=(
                Variable("group", "protected", "categorical", levels=("a,b", 'say "hi"', "plain")),
                Variable("blur", "distortion", "continuous_unit"),
                Variable("glasses", "accessory", "boolean"),
            ),
            protected=("group",),
        )
        rows = {
            'x,1': {"group": 0.0, "blur": 0.1, "glasses": 1.0},
            'y"2': {"group": 1.0, "blur": 1 / 3},
            "z\n3": {"group": 2.0, "glasses": 0.0},
            '"w"': {"blur": 5e-324},
        }
        # ids that hold ",nan" and a line break, over several write blocks
        patterns = list(rows.values())
        for i in range(3 * WRITE_CELLS // 4):  # 4 cells a row
            rows[f"v{i},nan\n"] = patterns[i % len(patterns)]
        path = tmp_path / "attrs.csv"
        write_attributes(path, attribute_table(rows, schema), schema)
        reference = tmp_path / "reference.csv"
        with open(reference, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["image_id", "group", "blur", "glasses"])
            for image, row in rows.items():
                group = schema.variables[0].levels[int(row["group"])] if "group" in row else ""
                blur = repr(row["blur"]) if "blur" in row else ""
                glasses = str(int(row["glasses"])) if "glasses" in row else ""
                writer.writerow([image, group, blur, glasses])
        assert path.read_bytes() == reference.read_bytes()
        loaded = read_attributes(path, schema)
        assert loaded.image_ids == tuple(rows)
        assert attribute_rows(loaded, schema) == rows

    def test_line_break_ids_round_trip(self, tmp_path):
        # a lone carriage return is quoted like a line feed, or the row
        # would split on reading
        schema = AttributeSchema(
            variables=(Variable("group", "protected", "categorical", levels=("a\rb", "c\nd")),),
            protected=("group",),
        )
        rows = {"x\r1": {"group": 0.0}, "y\n2": {"group": 1.0}, "z,3": {}, 'w"4': {"group": 1.0}}
        path = tmp_path / "attrs.csv"
        write_attributes(path, attribute_table(rows, schema), schema)
        assert b'"x\r1","a\rb"\n' in path.read_bytes()
        loaded = read_attributes(path, schema)
        assert loaded.image_ids == tuple(rows)
        assert attribute_rows(loaded, schema) == rows

    def test_csv_cells_quote_only_what_needs_it(self):
        texts = ["a\r1", "a\n1", "a\r\n1", "a,1", 'a"1', "plain", " spaced ", ""]
        assert csv_cells(texts) == [
            '"a\r1"', '"a\n1"', '"a\r\n1"', '"a,1"', '"a""1"', "plain", " spaced ", "",
        ]

    def test_accepts_level_indices(self, tmp_path):
        schema = default_schema()
        path = tmp_path / "attrs.csv"
        path.write_text("image_id,gender,ethnicity\nimg0,1,2\n", encoding="utf-8")
        table = read_attributes(path, schema)
        assert attribute_rows(table, schema) == {"img0": {"gender": 1.0, "ethnicity": 2.0}}

    def test_range_violation_names_image(self, tmp_path):
        schema = default_schema()
        path = tmp_path / "attrs.csv"
        path.write_text("image_id,blur\nimgX,1.7\n", encoding="utf-8")
        with pytest.raises(SchemaError, match="imgX"):
            read_attributes(path, schema)

    @pytest.mark.parametrize(
        "body, match",
        [
            ("a,woman,0.1\nb,alien,0.2\n", r":3: image 'b': variable 'gender': cannot parse"),
            ("a,woman,0.1\nb,1.5,0.2\n", r":3: image 'b': variable 'gender': 1.5 is not"),
            ("a,woman,nan\n", r":2: image 'a': variable 'blur': non-finite"),
            # the first fault in row order wins, whichever column or kind
            ("a,woman,2\nb,alien\n", r":2: image 'a': variable 'blur'"),
            ("a,woman\nb,alien,2\n", r":2: expected 3 cells, got 2"),
            ("a,woman,0.1\n\na,man,0.2\nc,alien,0.2\n", r":4: duplicate image_id 'a'"),
            ("a,alien,0.1\na,man,0.2\n", r":2: image 'a': variable 'gender'"),
            ("a,man,0.1\nb,man,x\nc,alien,0.2\n", r":3: image 'b': variable 'blur'"),
            # float() would read 0_1 as 1.0
            ("a,man,0.1\nb,man,0_1\n", r":3: image 'b': variable 'blur': cannot parse value '0_1'"),
            # a row fault comes before a later cell the csv module cannot read
            pytest.param(
                f"a,man,1.5\nb,{'x' * (csv.field_size_limit() + 1)},0.2\n",
                r":2: image 'a': variable 'blur'",
                id="before-an-oversized-cell",
            ),
        ],
    )
    def test_first_fault_named(self, tmp_path, body, match):
        path = tmp_path / "attrs.csv"
        path.write_text("image_id,gender,blur\n" + body, encoding="utf-8")
        with pytest.raises(DataError, match=match):
            read_attributes(path, default_schema())

    def test_level_names_may_hold_underscores(self, tmp_path):
        schema = AttributeSchema(
            variables=(Variable("region", "protected", "categorical", levels=("east_asia", "other")),),
            protected=("region",),
        )
        path = tmp_path / "attrs.csv"
        path.write_text("image_id,region\na,east_asia\nb,1\n", encoding="utf-8")
        assert read_attributes(path, schema).values.tolist() == [[0.0], [1.0]]

    def test_duplicate_column_rejected(self, tmp_path):
        path = tmp_path / "attrs.csv"
        path.write_text("image_id,blur,smile,blur\nimg0,0.1,0.2,0.3\n", encoding="utf-8")
        with pytest.raises(DataError, match="duplicate attribute column 'blur'"):
            read_attributes(path, default_schema())

    def test_unknown_column_rejected(self, tmp_path):
        path = tmp_path / "attrs.csv"
        path.write_text("image_id,zodiac\nimg0,1\n", encoding="utf-8")
        with pytest.raises(SchemaError):
            read_attributes(path, default_schema())

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "attrs.csv"
        path.write_text("img0,0.5\n", encoding="utf-8")
        with pytest.raises(DataError):
            read_attributes(path, default_schema())

    def test_duplicate_image_rejected(self, tmp_path):
        path = tmp_path / "attrs.csv"
        path.write_text("image_id,blur\nimg0,0.1\nimg0,0.2\n", encoding="utf-8")
        with pytest.raises(DataError):
            read_attributes(path, default_schema())

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "attrs.csv"
        path.write_text("image_id,blur,smile\nimg0,0.1\n", encoding="utf-8")
        with pytest.raises(DataError):
            read_attributes(path, default_schema())

    def test_empty_cells_are_missing(self, tmp_path):
        path = tmp_path / "attrs.csv"
        path.write_text("image_id,blur,smile\nimg0,,0.5\n", encoding="utf-8")
        table = read_attributes(path, default_schema())
        assert attribute_rows(table) == {"img0": {"smile": 0.5}}


class TestBuildCohort:
    def test_basic_assembly(self):
        cohort = _cohort(n_identities=3, images_each=2)
        assert len(cohort.image_ids) == 6
        assert cohort.identities == ("id0", "id1", "id2")
        assert cohort.image_ids[:2] == ("id0_img0", "id0_img1")
        assert cohort.identity_codes.tolist() == [0, 0, 1, 1, 2, 2]
        assert cohort.vectors.shape == (6, 8)

    def test_identities_sorted(self):
        image_ids, identity_ids, vectors = _records(n_identities=3, images_each=3)
        order = [8, 1, 3, 0, 5, 7, 2, 4, 6]
        shuffled = vectors[order]
        cohort = build_cohort(
            tuple(image_ids[i] for i in order), tuple(identity_ids[i] for i in order), shuffled
        )
        assert cohort.identities == ("id0", "id1", "id2")
        # the image table of the file order sorted, the vectors in its rows
        assert cohort.image_ids == image_ids
        assert cohort.vectors.tobytes() == vectors.tobytes()
        assert not np.shares_memory(cohort.vectors, shuffled)

    def test_sorted_table_shares_its_matrix(self):
        # records already in cohort order, as synth draws them, are not copied
        image_ids, identity_ids, vectors = _records(n_identities=3, images_each=3)
        cohort = build_cohort(image_ids, identity_ids, vectors)
        assert cohort.vectors is vectors

    def test_unattributed_listed(self):
        # an image without an attribute row stays in the cohort and its profile
        rows = attribute_table({"id0_img0": {"blur": 0.5}})
        cohort = _cohort(n_identities=1, images_each=2)
        assert cohort.image_ids == ("id0_img0", "id0_img1")
        assert profile_rows(aggregate_profiles(cohort, rows, default_schema())) == {
            "id0": {"blur": 0.5}
        }

    def test_duplicate_image_id_rejected(self):
        with pytest.raises(DataError, match="^duplicate image_id 'a' among embeddings$"):
            build_cohort(("a", "b", "a", "b"), ("x",) * 4, np.ones((4, 3)))

    def test_dim_mismatch_rejected(self, tmp_path):
        # a float32 matrix cannot be ragged, so the reader rejects the row
        path = tmp_path / "emb.csv"
        path.write_text("a,x,1.0,1.0,1.0\nb,x,1.0,1.0,1.0,1.0,1.0\n", encoding="utf-8")
        with pytest.raises(DataError, match=f"^{path}:2: dimension mismatch: 'b' has 5, expected 3$"):
            load_cohort(path)

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            build_cohort((), (), np.empty((0, 3)))

    def test_load_cohort_round_trip(self, tmp_path):
        schema = default_schema()
        records = _cohort(n_identities=2, images_each=2)
        rows = attribute_table({image: {"blur": 0.3} for image in records.image_ids})
        emb = tmp_path / "emb.freb"
        attrs = tmp_path / "attrs.csv"
        write_embeddings_binary(emb, records)
        write_attributes(attrs, rows, schema)
        cohort = load_cohort(emb)
        assert len(cohort.image_ids) == 4
        profiles = aggregate_profiles(cohort, read_attributes(attrs, schema), schema)
        assert profile_rows(profiles)["id1"] == {"blur": 0.3}

    def test_load_cohort_without_attributes(self, tmp_path):
        records = _cohort(n_identities=2, images_each=2)
        emb = tmp_path / "emb.freb"
        write_embeddings_binary(emb, records)
        cohort = load_cohort(emb)
        assert cohort.image_ids == tuple(sorted(records.image_ids))


def _load_or_reject(path, data):
    """load_cohort of a file holding ``data``: a cohort, or a DataError
    (SchemaError is one) and no other exception."""
    path.write_bytes(data)
    try:
        return load_cohort(path)
    except DataError:
        return None


# Cells as embedding rows hold them, and cells no reader expects.
_TEXT_CELL = st.one_of(
    st.sampled_from(["", " ", "a", "x", "0", "1.5", "-2e-3", "1_0", "nan", "inf", "1e39", '"', "\r"]),
    st.floats().map(repr),
    st.text(max_size=6),
)


class TestLoadCohortFuzz:
    """Whatever an embedding file holds, load_cohort returns a cohort or
    raises a DataError."""

    @given(st.binary(max_size=96))
    @example(b"\x00" * 8)  # no records
    @example(b"\x01\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00")  # one record of dimension 0
    @settings(max_examples=300, deadline=None)
    def test_random_binary_body(self, tmp_path_factory, body):
        _load_or_reject(tmp_path_factory.getbasetemp() / "fuzz.freb", b"FREB\x01" + body)

    def test_every_truncation_rejected(self, tmp_path):
        full = tmp_path / "full.freb"
        write_embeddings_binary(full, _cohort(n_identities=2, images_each=2, dim=3))
        data = full.read_bytes()
        for end in range(len(data)):
            assert _load_or_reject(tmp_path / "cut.freb", data[:end]) is None, end

    @given(st.lists(st.lists(_TEXT_CELL, max_size=5), max_size=6))
    @example([["a", "x", "1e39"]])  # beyond float32
    @example([["a", "x", "1.0"], ["a", "y", "2.0"]])  # one image id twice
    @settings(max_examples=100, deadline=None)
    def test_random_text_rows(self, tmp_path_factory, rows):
        text = "\n".join(",".join(row) for row in rows)
        path = tmp_path_factory.getbasetemp() / "fuzz.csv"
        cohort = _load_or_reject(path, text.encode("utf-8"))
        assert cohort is None or len(cohort) == len(set(cohort.image_ids)) > 0


def aggregate_rows(rows, schema):
    """The present values of one identity whose images carry ``rows``."""
    table = attribute_table({f"img{i}": row for i, row in enumerate(rows)}, schema)
    codes = np.zeros(len(rows), dtype=np.intp)
    return _row_dict(aggregate_table(table, table.image_ids, codes, 1, schema)[0], schema)


def _row_dict(values, schema):
    """The present values of one profile row as a {variable: value} dict."""
    return {name: v for name, v in zip(schema.names(), values.tolist()) if not np.isnan(v)}


class TestAggregation:
    def test_continuous_mean(self):
        schema = default_schema()
        rows = [{"yaw": 10.0}, {"yaw": -10.0}, {"yaw": 30.0}]
        values = aggregate_rows(rows, schema)
        assert values["yaw"] == pytest.approx(10.0)

    def test_boolean_majority(self):
        schema = default_schema()
        rows = [{"eyes_occluded": 1.0}, {"eyes_occluded": 0.0}, {"eyes_occluded": 0.0}]
        values = aggregate_rows(rows, schema)
        assert values["eyes_occluded"] == 0.0

    def test_boolean_tie_resolves_to_one(self):
        schema = default_schema()
        rows = [{"eyes_occluded": 1.0}, {"eyes_occluded": 0.0}]
        values = aggregate_rows(rows, schema)
        assert values["eyes_occluded"] == 1.0

    def test_categorical_mode(self):
        schema = default_schema()
        rows = [{"ethnicity": 2.0}, {"ethnicity": 2.0}, {"ethnicity": 0.0}]
        values = aggregate_rows(rows, schema)
        assert values["ethnicity"] == 2.0

    def test_categorical_tie_resolves_to_lowest(self):
        schema = default_schema()
        rows = [{"ethnicity": 2.0}, {"ethnicity": 0.0}]
        values = aggregate_rows(rows, schema)
        assert values["ethnicity"] == 0.0

    def test_partial_coverage(self):
        schema = default_schema()
        rows = [{"blur": 0.2}, {"blur": 0.4}, {}, {}]
        values = aggregate_rows(rows, schema)
        assert values["blur"] == pytest.approx(0.3)  # the mean of the present values

    def test_absent_variable_has_no_value(self):
        schema = default_schema()
        values = aggregate_rows([{"blur": 0.2}], schema)
        assert "smile" not in values

    def test_identity_without_rows_is_empty(self):
        assert aggregate_rows([], default_schema()) == {}

    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8))
    @example([0.3791893725794816] * 3)  # np.mean gives 0.37918937257948154
    @settings(max_examples=30, deadline=None)
    def test_mean_within_observed_range(self, xs):
        schema = default_schema()
        rows = [{"blur": v} for v in xs]
        values = aggregate_rows(rows, schema)
        assert min(xs) <= values["blur"] <= max(xs)

    def test_profiles_cover_all_identities(self):
        schema = default_schema()
        cohort = _cohort(n_identities=3, images_each=2)
        rows = attribute_table({image: {"blur": 0.5} for image in cohort.image_ids[:4]})
        profiles = aggregate_profiles(cohort, rows, schema)
        assert profiles.identities == ("id0", "id1", "id2")
        values = profile_rows(profiles)
        assert values["id0"]["blur"] == 0.5
        # id2 has no attribute rows at all: every value missing
        assert values["id2"] == {}
        assert np.isnan(profiles.values[2]).all()

    def test_profile_skips_images_without_rows(self):
        schema = default_schema()
        cohort = _cohort(n_identities=1, images_each=4)
        # only 2 of 4 images have attribute rows
        rows = attribute_table({cohort.image_ids[i]: {"blur": v} for i, v in ((0, 0.2), (1, 0.4))})
        profiles = aggregate_profiles(cohort, rows, schema)
        assert _row_dict(profiles.values[0], schema) == {"blur": pytest.approx(0.3)}


def _loop_aggregate(rows, schema):
    """The per-identity dict loop that aggregate_table replaced, kept as
    its oracle: np.mean of a list, clamped; Counter modes."""
    values = {}
    for var in schema.variables:
        present = [row[var.name] for row in rows if var.name in row]
        if not present:
            continue
        if var.is_continuous:
            mean = float(np.mean(present))
            values[var.name] = min(max(mean, min(present)), max(present))
        elif var.kind == "boolean":
            ones = sum(1 for v in present if v == 1.0)
            values[var.name] = 1.0 if 2 * ones >= len(present) else 0.0
        else:
            counts = Counter(present)
            best = max(counts.values())
            values[var.name] = float(min(v for v, c in counts.items() if c == best))
    return values


def _maybe(values):
    return st.one_of(st.none(), values)


_IMAGE_ROW = st.fixed_dictionaries(
    {
        "blur": _maybe(st.floats(0.0, 1.0)),
        "yaw": _maybe(st.floats(-180.0, 180.0)),
        "smile": _maybe(st.sampled_from([0.1, 0.2, 0.3, 0.7])),  # repeated values
        "eyes_occluded": _maybe(st.sampled_from([0.0, 1.0])),
        "ethnicity": _maybe(st.sampled_from([0.0, 1.0, 2.0])),
    }
).map(lambda row: {k: v for k, v in row.items() if v is not None})


class TestAggregateTableOracle:
    @given(st.lists(st.lists(_IMAGE_ROW, min_size=1, max_size=12), min_size=1, max_size=8))
    @example([[{"blur": 0.3791893725794816}] * 3])
    # eight values: np.mean sums pairwise and gives 0.675, a running sum 0.6749999999999999
    @example([[{"blur": v} for v in (0.62, 0.38, 1.0, 0.98, 0.69, 0.65, 0.69, 0.39)]] * 2)
    @example([[{"eyes_occluded": 1.0}, {"eyes_occluded": 0.0}], [{"ethnicity": 2.0}, {"ethnicity": 1.0}]])
    @settings(max_examples=200, deadline=None)
    def test_matches_per_identity_loop(self, identities):
        schema = default_schema()
        rows = {
            f"u{u}_{k:02d}": row for u, images in enumerate(identities) for k, row in enumerate(images)
        }
        codes = np.repeat(np.arange(len(identities)), [len(images) for images in identities])
        table = attribute_table(rows, schema)
        values = aggregate_table(table, table.image_ids, codes, len(identities), schema)
        for row, images in zip(values, identities):
            # bit for bit: float == on every value
            assert _row_dict(row, schema) == _loop_aggregate(images, schema)
