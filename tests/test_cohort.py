"""Tests for cohort assembly, embedding I/O, and attribute aggregation."""

import csv
import struct
from collections import Counter

import numpy as np
import pytest
from conftest import attribute_rows, attribute_table, embedding_table, profile_rows
from hypothesis import example, given, settings
from hypothesis import strategies as st

from faceaudit.cohort import (
    AttributeTable,
    EmbeddingTable,
    aggregate_profiles,
    aggregate_table,
    build_cohort,
    load_cohort,
    load_embeddings,
    read_attributes,
    read_embeddings_binary,
    read_embeddings_text,
    write_attributes,
    write_embeddings_binary,
)
from faceaudit.errors import DataError, SchemaError
from faceaudit.schema import AttributeSchema, Variable, default_schema


def _records(n_identities=3, images_each=2, dim=8, seed=0):
    rng = np.random.default_rng(seed)
    return embedding_table(
        (f"id{i}_img{k}", f"id{i}", rng.normal(size=dim).astype(np.float32))
        for i in range(n_identities)
        for k in range(images_each)
    )


class TestEmbeddingRecord:
    """Each record (row) of an embedding table."""

    def test_casts_to_float32(self):
        table = EmbeddingTable(("a",), ("x",), np.arange(4, dtype=np.float64)[None])
        assert table.vectors.dtype == np.float32

    def test_rejects_matrix(self):
        with pytest.raises(DataError, match="'a' must be a 1-d vector"):
            EmbeddingTable(("a",), ("x",), np.zeros((1, 2, 2)))

    def test_rejects_empty(self):
        with pytest.raises(DataError, match="'a' must be a 1-d vector"):
            EmbeddingTable(("a",), ("x",), np.zeros((1, 0)))

    def test_rejects_non_finite(self):
        with pytest.raises(DataError, match="^embedding for 'b' contains non-finite values$"):
            EmbeddingTable(("a", "b", "c"), ("x",) * 3, [[1.0, 2.0], [1.0, np.nan], [np.inf, 0]])


class TestBinaryFormat:
    def test_round_trip(self, tmp_path):
        records = _records()
        path = tmp_path / "emb.freb"
        write_embeddings_binary(path, records)
        loaded = read_embeddings_binary(path)
        assert len(loaded) == len(records)
        assert loaded.image_ids == records.image_ids
        assert loaded.identity_ids == records.identity_ids
        assert loaded.vectors.tobytes() == records.vectors.tobytes()

    def test_byte_stability(self, tmp_path):
        records = _records()
        a, b = tmp_path / "a.freb", tmp_path / "b.freb"
        write_embeddings_binary(a, records)
        write_embeddings_binary(b, records)
        assert a.read_bytes() == b.read_bytes()

    def test_unicode_ids(self, tmp_path):
        table = embedding_table([("képmás_01", "személy", np.ones(3, dtype=np.float32))])
        path = tmp_path / "u.freb"
        write_embeddings_binary(path, table)
        loaded = read_embeddings_binary(path)
        assert loaded.image_ids == ("képmás_01",)
        assert loaded.identity_ids == ("személy",)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.freb"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(DataError):
            read_embeddings_binary(path)

    def test_truncated_file(self, tmp_path):
        records = _records(n_identities=2, images_each=2)
        path = tmp_path / "full.freb"
        write_embeddings_binary(path, records)
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
        records = _records(n_identities=1, images_each=2)
        path = tmp_path / "pad.freb"
        write_embeddings_binary(path, records)
        path.write_bytes(path.read_bytes() + b"\x00\x00")
        with pytest.raises(DataError):
            read_embeddings_binary(path)

    def test_non_finite_names_first_image(self, tmp_path):
        marker = struct.pack("<f", 7.0)
        vectors = np.ones((4, 3), dtype=np.float32)
        vectors[[1, 3], 2] = 7.0
        table = EmbeddingTable(("a", "b", "c", "d"), ("x",) * 4, vectors)
        path = tmp_path / "nan.freb"
        write_embeddings_binary(path, table)
        path.write_bytes(path.read_bytes().replace(marker, struct.pack("<f", np.nan)))
        with pytest.raises(DataError, match="^embedding for 'b' contains non-finite values$"):
            read_embeddings_binary(path)

    def test_refuses_empty_write(self, tmp_path):
        with pytest.raises(DataError):
            write_embeddings_binary(tmp_path / "e.freb", EmbeddingTable((), (), np.empty((0, 3))))


class TestTextFormat:
    def test_reads_csv(self, tmp_path):
        path = tmp_path / "emb.csv"
        path.write_text("a,x,1.0,2.0\nb,x,3.0,4.0\n", encoding="utf-8")
        table = read_embeddings_text(path)
        assert table.image_ids == ("a", "b")
        assert table.identity_ids == ("x", "x")
        np.testing.assert_allclose(table.vectors[1], [3.0, 4.0])

    def test_components_cast_from_float(self, tmp_path):
        # float() first, then the float32 cast: the bits of the old reader
        cells = ["0.1", "1e-50", "-3.4028235e38", "16777217", " 2.5"]
        path = tmp_path / "emb.csv"
        path.write_text("a,x," + ",".join(cells) + "\n", encoding="utf-8")
        want = np.array([float(c) for c in cells], dtype=np.float32)
        assert read_embeddings_text(path).vectors.tobytes() == want[None].tobytes()

    def test_skips_blank_lines(self, tmp_path):
        path = tmp_path / "emb.csv"
        path.write_text("a,x,1.0\n\nb,x,2.0\n", encoding="utf-8")
        assert len(read_embeddings_text(path)) == 2

    def test_blank_file_has_no_records(self, tmp_path):
        path = tmp_path / "emb.csv"
        path.write_text("\n\n", encoding="utf-8")
        assert len(read_embeddings_text(path)) == 0
        with pytest.raises(DataError, match=f"^{path}: no embedding records$"):
            load_cohort(path, None, default_schema())

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
        with pytest.raises(DataError, match="^dimension mismatch: 'b' has 1, expected 2$"):
            read_embeddings_text(path)

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "emb.csv"
        path.write_text("a,x,1.0,2.0\nb,x,nan,4.0\n", encoding="utf-8")
        with pytest.raises(DataError, match="^embedding for 'b' contains non-finite values$"):
            read_embeddings_text(path)

    def test_load_embeddings_sniffs_format(self, tmp_path):
        records = _records(n_identities=1, images_each=2)
        binary = tmp_path / "b.freb"
        write_embeddings_binary(binary, records)
        text = tmp_path / "t.csv"
        text.write_text("a,x,1.0,2.0\n", encoding="utf-8")
        assert len(load_embeddings(binary)) == 2
        assert len(load_embeddings(text)) == 1


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
        # break are quoted as csv.writer quotes them, and read back
        schema = AttributeSchema(
            variables=(
                Variable("group", "protected", "categorical", levels=("a,b", 'say "hi"', "plain")),
                Variable("blur", "distortion", "continuous_unit"),
                Variable("glasses", "accessory", "boolean"),
            ),
            protected_names=("group",),
        )
        rows = {
            'x,1': {"group": 0.0, "blur": 0.1, "glasses": 1.0},
            'y"2': {"group": 1.0, "blur": 1 / 3},
            "z\n3": {"group": 2.0, "glasses": 0.0},
            '"w"': {"blur": 5e-324},
        }
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
            protected_names=("region",),
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
        records = _records(n_identities=3, images_each=2)
        cohort = build_cohort(records)
        assert len(cohort.image_ids) == 6
        assert cohort.identities == ("id0", "id1", "id2")
        assert cohort.image_ids[:2] == ("id0_img0", "id0_img1")
        assert cohort.identity_codes.tolist() == [0, 0, 1, 1, 2, 2]
        assert cohort.vectors.shape == (6, 8)

    def test_identities_sorted(self):
        records = _records(n_identities=3, images_each=3)
        order = [8, 1, 3, 0, 5, 7, 2, 4, 6]
        shuffled = EmbeddingTable(
            tuple(records.image_ids[i] for i in order),
            tuple(records.identity_ids[i] for i in order),
            records.vectors[order],
        )
        cohort = build_cohort(shuffled)
        assert cohort.identities == ("id0", "id1", "id2")
        # the image table of the file order sorted, the vectors in its rows
        assert cohort.image_ids == records.image_ids
        assert cohort.vectors.tobytes() == records.vectors.tobytes()
        assert not np.shares_memory(cohort.vectors, shuffled.vectors)

    def test_sorted_table_shares_its_matrix(self):
        # a table already in cohort order, as synth makes it, is not copied
        records = _records(n_identities=3, images_each=3)
        cohort = build_cohort(records)
        assert cohort.vectors is records.vectors

    def test_unattributed_listed(self):
        records = _records(n_identities=1, images_each=2)
        rows = attribute_table({"id0_img0": {"blur": 0.5}})
        cohort = build_cohort(records, rows)
        assert cohort.image_ids == ("id0_img0", "id0_img1")
        assert cohort.images.image_ids == ("id0_img0",)

    def test_orphan_attribute_row_rejected(self):
        records = _records(n_identities=1, images_each=1)
        rows = attribute_table({"ghost": {"blur": 0.5}})
        with pytest.raises(DataError, match="^attribute row for 'ghost' has no matching"):
            build_cohort(records, rows)

    def test_duplicate_attribute_row_rejected(self):
        records = _records(n_identities=1, images_each=1)
        rows = AttributeTable(("id0_img0", "id0_img0"), np.full((2, 20), 0.5))
        with pytest.raises(DataError, match="^duplicate attribute row for 'id0_img0'$"):
            build_cohort(records, rows)

    def test_duplicate_image_id_rejected(self):
        table = embedding_table([("a", "x", np.ones(3)), ("b", "x", np.ones(3))] * 2)
        with pytest.raises(DataError, match="^duplicate image_id 'a' among embeddings$"):
            build_cohort(table)

    def test_dim_mismatch_rejected(self, tmp_path):
        # a float32 matrix cannot be ragged, so the reader rejects the row
        path = tmp_path / "emb.csv"
        path.write_text("a,x,1.0,1.0,1.0\nb,x,1.0,1.0,1.0,1.0,1.0\n", encoding="utf-8")
        with pytest.raises(DataError, match="^dimension mismatch: 'b' has 5, expected 3$"):
            load_cohort(path, None, default_schema())

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            build_cohort(EmbeddingTable((), (), np.empty((0, 3))))

    def test_load_cohort_round_trip(self, tmp_path):
        schema = default_schema()
        records = _records(n_identities=2, images_each=2)
        rows = attribute_table({image: {"blur": 0.3} for image in records.image_ids})
        emb = tmp_path / "emb.freb"
        attrs = tmp_path / "attrs.csv"
        write_embeddings_binary(emb, records)
        write_attributes(attrs, rows, schema)
        cohort = load_cohort(emb, attrs, schema)
        assert len(cohort.image_ids) == 4
        assert attribute_rows(cohort.images)["id1_img0"] == {"blur": 0.3}

    def test_load_cohort_without_attributes(self, tmp_path):
        records = _records(n_identities=2, images_each=2)
        emb = tmp_path / "emb.freb"
        write_embeddings_binary(emb, records)
        cohort = load_cohort(emb, None, default_schema())
        assert cohort.image_ids == tuple(sorted(records.image_ids))
        assert cohort.images.image_ids == ()


def aggregate_rows(rows, schema):
    """(values, coverage) of one identity whose images carry ``rows``."""
    table = attribute_table({f"img{i}": row for i, row in enumerate(rows)}, schema)
    codes = np.zeros(len(rows), dtype=np.intp)
    values, coverage, _ = aggregate_table(table, table.image_ids, codes, 1, schema)
    return _row_dicts(values[0], coverage[0], schema)


def _row_dicts(values, coverage, schema):
    """(present values, coverage) of one profile row as {variable: value} dicts."""
    names = schema.names()
    present = {name: v for name, v in zip(names, values.tolist()) if not np.isnan(v)}
    return present, dict(zip(names, coverage.tolist()))


class TestAggregation:
    def test_continuous_mean(self):
        schema = default_schema()
        rows = [{"yaw": 10.0}, {"yaw": -10.0}, {"yaw": 30.0}]
        values, coverage = aggregate_rows(rows, schema)
        assert values["yaw"] == pytest.approx(10.0)
        assert coverage["yaw"] == 1.0

    def test_boolean_majority(self):
        schema = default_schema()
        rows = [{"eyes_occluded": 1.0}, {"eyes_occluded": 0.0}, {"eyes_occluded": 0.0}]
        values, _ = aggregate_rows(rows, schema)
        assert values["eyes_occluded"] == 0.0

    def test_boolean_tie_resolves_to_one(self):
        schema = default_schema()
        rows = [{"eyes_occluded": 1.0}, {"eyes_occluded": 0.0}]
        values, _ = aggregate_rows(rows, schema)
        assert values["eyes_occluded"] == 1.0

    def test_categorical_mode(self):
        schema = default_schema()
        rows = [{"ethnicity": 2.0}, {"ethnicity": 2.0}, {"ethnicity": 0.0}]
        values, _ = aggregate_rows(rows, schema)
        assert values["ethnicity"] == 2.0

    def test_categorical_tie_resolves_to_lowest(self):
        schema = default_schema()
        rows = [{"ethnicity": 2.0}, {"ethnicity": 0.0}]
        values, _ = aggregate_rows(rows, schema)
        assert values["ethnicity"] == 0.0

    def test_partial_coverage(self):
        schema = default_schema()
        rows = [{"blur": 0.2}, {"blur": 0.4}, {}, {}]
        values, coverage = aggregate_rows(rows, schema)
        assert values["blur"] == pytest.approx(0.3)
        assert coverage["blur"] == pytest.approx(0.5)

    def test_absent_variable_has_no_value(self):
        schema = default_schema()
        values, coverage = aggregate_rows([{"blur": 0.2}], schema)
        assert "smile" not in values
        assert coverage["smile"] == 0.0

    def test_identity_without_rows_is_empty(self):
        values, coverage = aggregate_rows([], default_schema())
        assert values == {}
        assert set(coverage.values()) == {0.0}

    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8))
    @example([0.3791893725794816] * 3)  # np.mean gives 0.37918937257948154
    @settings(max_examples=30, deadline=None)
    def test_mean_within_observed_range(self, xs):
        schema = default_schema()
        rows = [{"blur": v} for v in xs]
        values, _ = aggregate_rows(rows, schema)
        assert min(xs) <= values["blur"] <= max(xs)

    def test_profiles_cover_all_identities(self):
        schema = default_schema()
        records = _records(n_identities=3, images_each=2)
        rows = attribute_table({image: {"blur": 0.5} for image in records.image_ids[:4]})
        cohort = build_cohort(records, rows)
        profiles = aggregate_profiles(cohort, schema)
        assert profiles.identities == ("id0", "id1", "id2")
        values = profile_rows(profiles)
        assert values["id0"]["blur"] == 0.5
        # id2 has no attribute rows at all: empty values, zero coverage
        assert values["id2"] == {}
        assert not profiles.coverage[2].any()

    def test_profile_coverage_counts_missing_rows(self):
        schema = default_schema()
        records = _records(n_identities=1, images_each=4)
        # only 2 of 4 images have attribute rows, both with blur present
        rows = attribute_table({records.image_ids[i]: {"blur": 0.5} for i in (0, 1)})
        cohort = build_cohort(records, rows)
        profiles = aggregate_profiles(cohort, schema)
        _, coverage = _row_dicts(profiles.values[0], profiles.coverage[0], schema)
        assert coverage["blur"] == pytest.approx(0.5)


def _loop_aggregate(rows, schema):
    """The per-identity dict loop that aggregate_table replaced, kept as
    its oracle: np.mean of a list, clamped; Counter modes."""
    values, coverage = {}, {}
    for var in schema.variables:
        present = [row[var.name] for row in rows if var.name in row]
        coverage[var.name] = len(present) / len(rows)
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
    return values, coverage


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
        values, coverage, n_rows = aggregate_table(
            table, table.image_ids, codes, len(identities), schema
        )
        assert n_rows.tolist() == [len(images) for images in identities]
        for row, cov, images in zip(values, coverage, identities):
            want_values, want_coverage = _loop_aggregate(images, schema)
            # bit for bit: float == on every value and coverage
            assert _row_dicts(row, cov, schema) == (want_values, want_coverage)
