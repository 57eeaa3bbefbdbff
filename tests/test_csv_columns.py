"""Tests for the block CSV reader both input readers share: with any
block size it reads the rows and line numbers ``csv.reader`` reads and
names the first record it cannot split into columns; the trial and
attribute readers built on it give, whatever the block size, the result
and the first fault a row-by-row reader gives, name an identity fault by
the line a row-by-row reader counts, and read a faulty file once."""

import csv
import io
import random
import re
import tracemalloc
from contextlib import contextmanager
from itertools import islice

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import write_bench_inputs

from faceaudit import cohort, inputs, trials
from faceaudit.cohort import ImageTable, _parse_cell, read_attributes
from faceaudit.errors import DataError, SchemaError
from faceaudit.inputs import csv_columns, csv_header, csv_records, open_text
from faceaudit.schema import default_schema
from faceaudit.trials import _GENUINE, _score, read_trials_csv

_LIMIT = csv.field_size_limit()


@contextmanager
def _field_limit(limit):
    csv.field_size_limit(limit)
    try:
        yield
    finally:
        csv.field_size_limit(_LIMIT)


def _rows_as_written(rows, terminator):
    out = io.StringIO()
    csv.writer(out, lineterminator=terminator).writerows(rows)
    return out.getvalue()


# Bodies: raw text over the characters the csv module treats specially,
# or rows written as csv.writer writes them (quoted where needed), with
# blank lines put in and the final line break dropped at times.  Rows
# of plain cells take the str.split path.
_CELL = st.text(alphabet='ab ,"\r\n', max_size=6)
_RAW = st.text(alphabet='ab ,"\r\n', max_size=80)


@st.composite
def _written(draw, cells=_CELL, widths=st.integers(1, 4)):
    width = draw(widths)
    rows = draw(st.lists(st.lists(cells, min_size=width, max_size=width), max_size=10))
    # rows one cell short or long; a short and a long one keep the comma total
    for i, longer in draw(st.lists(st.tuples(st.integers(0, 9), st.booleans()), max_size=2)):
        if i < len(rows):
            rows[i] = rows[i] + ["a"] if longer else rows[i][:-1]
    terminator = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    lines = _rows_as_written(rows, terminator).split(terminator)[:-1]
    blanks = draw(st.lists(st.integers(0, len(lines)), max_size=3))
    for at in sorted(blanks, reverse=True):
        lines.insert(at, "")
    body = "".join(line + terminator for line in lines)
    if body and draw(st.booleans()):
        body = body[: -len(terminator)]  # no final line break
    return body


_BODIES = st.one_of(_RAW, _written(), _written(st.text(alphabet="ab ", max_size=3)))


def _reference(text):
    """(line, row) of each record csv.reader reads, and the line and
    message of the csv.Error it stops at, if any."""
    reader = csv.reader(io.StringIO(text, newline=""))
    records, lineno = [], 1
    while True:
        try:
            records.append((lineno, next(reader)))
        except StopIteration:
            return records, None
        except csv.Error as exc:
            return records, (lineno, str(exc))
        lineno += 1


class TestCsvColumns:
    @settings(
        max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(
        body=_BODIES,
        width=st.integers(1, 4),
        block_chars=st.integers(1, 64),
        block_rows=st.integers(1, 4),
        limit=st.sampled_from([3, _LIMIT]),
    )
    # one row a cell long and one a cell short keep the block's comma total
    @example(body="a,b,c\na\n", width=2, block_chars=64, block_rows=4, limit=_LIMIT)
    # spaces, empty cells, a blank line and no final line break, all split by str.split
    @example(body=" a ,,b\n\n,,\nc, ,d", width=3, block_chars=64, block_rows=4, limit=_LIMIT)
    def test_matches_csv_reader(self, monkeypatch, body, width, block_chars, block_rows, limit):
        monkeypatch.setattr(inputs, "_BLOCK_CHARS", block_chars)
        monkeypatch.setattr(inputs, "_BLOCK_ROWS", block_rows)
        text = "h\n" + body
        blocks, raised = [], None
        with _field_limit(limit):
            records, error = _reference(text)
            fh = io.StringIO(text, newline="")
            assert csv_header(fh, "f", "test") == ["h"]
            try:
                blocks.extend(csv_columns(fh, width, "f"))
            except DataError as exc:
                raised = str(exc)
        records = [(line, row) for line, row in records[1:] if row]  # less the header
        faults = [(line, f"expected {width} cells, got {len(row)}")
                  for line, row in records if len(row) != width]
        fault = min(faults + ([error] if error else []), default=None)
        if fault is None:
            assert raised is None
        else:  # named once every record before it is yielded
            assert raised == f"f:{fault[0]}: {fault[1]}"
            records = [(line, row) for line, row in records if line < fault[0]]

        read = []
        for lines, columns in blocks:
            assert len(columns) == width and len(lines) == len(columns[0]) > 0
            if isinstance(lines, range):
                assert lines.step == 1
            read += zip(lines, zip(*columns))
        assert read == [(line, tuple(row)) for line, row in records]


_TRIAL_HEADER = "probe_image_id,reference_image_id,label,score"
_TRIAL_CELL = st.sampled_from(["a", "b", "c", 'q"x', "c,d", "e\nf", "g\rh", "genuine", "impostor",
                               "maybe", "0.5", "-1", "", "x", "0_5", " 1 "])
_ATTRIBUTE_HEADER = "image_id,gender,blur"
_ATTRIBUTE_CELL = st.sampled_from(["a", "b", "c", 'q"x', "c,d", "e\nf", "g\rh", "man", "woman",
                                   "1", "alien", "", "0.1", "1.5", "0_1", "nan", " 0.25 "])
# Cells every attribute column takes, so rows pass and image ids repeat
_ATTRIBUTE_PLAIN = st.sampled_from(["1", ""])


def _outcome(read, path):
    """What a reader gives: its result's arrays, or its error, which may
    only be a DataError or a SchemaError."""
    try:
        return read(path)
    except (DataError, SchemaError) as exc:
        return type(exc).__name__, str(exc)


def _trials(path, table=None):
    trials, scores = read_trials_csv(path, table)
    return trials.image_ids, trials.identities, trials.pairs.tolist(), scores.tobytes()


def _mapped_trials(path):
    """``_trials`` with an image table in which a_i and b_i are identity p_i, for i < 10."""
    images = tuple(f"{s}_{i}" for i in range(10) for s in "ab")
    codes = np.repeat(np.arange(10, dtype=np.int32), 2)
    return _trials(path, ImageTable(images, codes, tuple(f"p_{i}" for i in range(10))))


def _attributes(path):
    table = read_attributes(path, default_schema())
    return table.image_ids, table.values.tobytes()


# Reference readers: the first fault of each file, found by reading its
# records one by one and checking each row in turn.


def _trial_fault(path):
    with open_text(path) as fh:
        for lineno, row in islice(csv_records(fh, path), 1, None):
            if not row:
                continue
            if len(row) != 4:
                raise DataError(f"{path}:{lineno}: expected 4 cells, got {len(row)}")
            if row[2] not in _GENUINE:
                raise DataError(f"{path}:{lineno}: bad label {row[2]!r}")
            try:
                _score(row[3])
            except ValueError:
                raise DataError(f"{path}:{lineno}: bad score {row[3]!r}") from None


def _attribute_fault(path):
    schema, header, seen = default_schema(), _ATTRIBUTE_HEADER.split(","), set()
    with open_text(path) as fh:
        for lineno, row in islice(csv_records(fh, path), 1, None):
            if not row:
                continue
            if len(row) != len(header):
                raise DataError(f"{path}:{lineno}: expected {len(header)} cells, got {len(row)}")
            if row[0] in seen:
                raise DataError(f"{path}:{lineno}: duplicate image_id {row[0]!r}")
            seen.add(row[0])
            for col, cell in zip(header[1:], row[1:]):
                if not cell.strip():
                    continue
                try:
                    _parse_cell(schema.variable(col), cell)
                except SchemaError as exc:
                    raise SchemaError(f"{path}:{lineno}: image {row[0]!r}: {exc}") from None


def _line_of(path, index):
    """File line of trial row ``index``, counted by reading the file's
    records one by one, as ``read_trials_csv`` counts lines."""
    with open_text(path) as fh:
        lines = (lineno for lineno, row in csv_records(fh, path) if row)
        return next(islice(lines, index + 1, None))  # + 1 skips the header


# Faults the trial reader finds only once every row is read.
_AFTER_PARSE = re.compile(r":\d+: (pair compares image .* with itself|label contradicts .*)$")


class TestReadersIgnoreBlockSize:
    @pytest.mark.parametrize(
        "read, fault, header, cells",
        [
            (_trials, _trial_fault, _TRIAL_HEADER, _TRIAL_CELL),
            (_attributes, _attribute_fault, _ATTRIBUTE_HEADER,
             st.one_of(_ATTRIBUTE_PLAIN, _ATTRIBUTE_CELL)),
        ],
        ids=["trials", "attributes"],
    )
    @settings(
        max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(data=st.data())
    def test_same_outcome(self, tmp_path_factory, monkeypatch, read, fault, header, cells, data):
        width = header.count(",") + 1
        body = data.draw(st.one_of(_written(cells, st.just(width)), _RAW), label="body")
        limit = data.draw(st.sampled_from([4, _LIMIT]), label="limit")
        path = tmp_path_factory.getbasetemp() / "body.csv"
        path.write_text(header + "\n" + body, encoding="utf-8", newline="")
        with _field_limit(limit):
            first = _outcome(fault, path)
            whole = _outcome(read, path)
            if first is not None:  # the reference's fault
                assert whole == first
            elif whole[0] in ("DataError", "SchemaError"):  # rows well formed
                assert read is _trials and _AFTER_PARSE.search(whole[1]), whole
            monkeypatch.setattr(inputs, "_BLOCK_CHARS", data.draw(st.integers(1, 12), label="chars"))
            monkeypatch.setattr(inputs, "_BLOCK_ROWS", data.draw(st.integers(1, 4), label="rows"))
            assert _outcome(read, path) == whole


def _write(path, text):
    path.write_text(text, encoding="utf-8", newline="")
    return path


# Image id prefixes.  csv.writer quotes an id that starts with any but
# the plain ones under both line terminators below, so the reader takes
# its csv.reader path from that row on.
_ID_PREFIXES = ["", "", 'q"', "c,", "e\n", " "]


def _planted_body(rng):
    """The text of a trial file whose rows agree with their identities:
    genuine pairs within an identity, impostor pairs across identities,
    as csv.writer writes them, with blank lines put in.  One row, at
    ``index``, is planted: a self-pair, or an impostor row on the images
    of a genuine row.  Returns (text, index, the fault message's tail)."""
    images = [[f"{rng.choice(_ID_PREFIXES)}{k}_{j}" for j in range(rng.randint(2, 4))]
              for k in range(rng.randint(2, 4))]
    rows = []
    for k, own in enumerate(images):
        for i in range(len(own)):
            rows += [[own[i], b, "genuine"] for b in own[i + 1 :] if rng.random() < 0.4]
        rows += [[rng.choice(own), rng.choice(rng.choice(images[:k] + images[k + 1 :])),
                  "impostor"] for _ in range(rng.randint(0, 3))]
    rng.shuffle(rows)
    genuine = [row for row in rows if row[2] == "genuine"]
    if genuine and rng.random() < 0.5:
        a, b, _ = rng.choice(genuine)
        planted, tail = [*rng.sample([a, b], 2), "impostor"], "label contradicts the genuine pairs"
    else:
        image = rng.choice(rng.choice(images))
        planted = [image, image, rng.choice(["genuine", "impostor"])]
        tail = f"pair compares image {image!r} with itself"
    index = rng.randint(0, len(rows))
    rows.insert(index, planted)
    terminator = rng.choice(["\n", "\r\n"])
    lines = [_rows_as_written([[*row, repr(rng.random())]], terminator) for row in rows]
    for at in sorted(rng.choices(range(len(lines) + 1), k=rng.randint(0, 3)), reverse=True):
        lines.insert(at, terminator)
    return _TRIAL_HEADER + terminator + "".join(lines), index, tail


class TestIdentityFaultLines:
    def test_reader_names_the_reference_line(self, tmp_path, monkeypatch):
        # The trial reader names a fault found after the parse by the file
        # line it recorded as it read; the reference counts records again.
        path = tmp_path / "t.csv"
        for seed in range(3000):
            text, index, tail = _planted_body(random.Random(seed))
            _write(path, text)
            want = f"{path}:{_line_of(path, index)}: {tail}"
            for chars, rows in [(1 << 16, 1 << 10), (64, 4), (5, 1)]:
                monkeypatch.setattr(inputs, "_BLOCK_CHARS", chars)
                monkeypatch.setattr(inputs, "_BLOCK_ROWS", rows)
                with pytest.raises(DataError) as info:
                    read_trials_csv(path)
                assert str(info.value) == want, (seed, chars)


class TestMessages:
    def test_empty_trial_file(self, tmp_path):
        path = _write(tmp_path / "t.csv", "")
        with pytest.raises(DataError) as info:
            read_trials_csv(path)
        assert str(info.value) == f"{path}: empty trial file"

    def test_empty_attribute_file(self, tmp_path):
        path = _write(tmp_path / "a.csv", "")
        with pytest.raises(DataError) as info:
            read_attributes(path, default_schema())
        assert str(info.value) == f"{path}: empty attribute file"

    @pytest.mark.parametrize("quoted", [False, True], ids=["plain", "quoted"])
    @pytest.mark.parametrize("size, ok", [(_LIMIT, True), (_LIMIT + 1, False)])
    def test_cell_size_limit_on_both_paths(self, tmp_path, quoted, size, ok):
        # a quoted cell early on hands the rest of the file to csv.reader
        first = '"a,0",b_0,impostor,0.1\n' if quoted else "a_0,b_0,impostor,0.1\n"
        body = first + "a_1,b_1,impostor,0.2\n" + f"a_2,{'x' * size},impostor,0.3\n"
        path = _write(tmp_path / "t.csv", _TRIAL_HEADER + "\n" + body)
        if ok:
            assert len(read_trials_csv(path)[1]) == 3
            return
        with pytest.raises(DataError) as info:
            read_trials_csv(path)
        assert str(info.value) == f"{path}:4: field larger than field limit ({_LIMIT})"

    def test_earlier_fault_comes_before_an_oversized_cell(self, tmp_path):
        body = "a_0,b_0,maybe,0.1\n" + f"a_1,{'x' * (_LIMIT + 1)},impostor,0.3\n"
        path = _write(tmp_path / "t.csv", _TRIAL_HEADER + "\n" + body)
        with pytest.raises(DataError, match=r":2: bad label 'maybe'"):
            read_trials_csv(path)

    def test_crlf_split_across_blocks(self, tmp_path, monkeypatch):
        # "\r" ends one block's text and "\n" starts the next read
        body = "a_0,b_0,impostor,0.1\r\n" * 3
        path = _write(tmp_path / "t.csv", _TRIAL_HEADER + "\r\n" + body)
        whole = _trials(path)
        for chars in range(1, len(body) + 1):
            monkeypatch.setattr(inputs, "_BLOCK_CHARS", chars)
            assert _trials(path) == whole
        assert len(whole[2]) == 3


def _traced_peak(read, *args):
    """The traced peak of ``read(*args)`` above the memory live before it,
    and what it returns or raises."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        live = tracemalloc.get_traced_memory()[0]
        try:
            outcome = read(*args)
        except (DataError, SchemaError) as exc:
            outcome = exc
        return tracemalloc.get_traced_memory()[1] - live, outcome
    finally:
        if not tracing:
            tracemalloc.stop()


class TestFaultPaths:
    """A row fault is named from the block that holds it, and an identity
    fault found after the parse from the file lines the read recorded: the
    file is opened once, and the search for the fault keeps no more than a
    clean read."""

    def test_attribute_fault_peak(self, tmp_path):
        # Measured on the 2,400-identity benchmark file: the clean read's
        # traced peak 3.8 MB; a bad last row's 16.7 MB when the fault was
        # found by reading every record again, 3.0 MB from its block.
        write_bench_inputs(tmp_path, 2400, 0)
        clean = tmp_path / "attributes.csv"
        lines = clean.read_text(encoding="utf-8").splitlines(keepends=True)
        cells = lines[-1].split(",")
        cells[3] = "200"  # age, in [1, 100]
        faulty = _write(tmp_path / "faulty.csv", "".join(lines[:-1]) + ",".join(cells))
        clean_peak, table = _traced_peak(read_attributes, clean, default_schema())
        assert len(table.image_ids) == len(lines) - 1
        faulty_peak, error = _traced_peak(read_attributes, faulty, default_schema())
        assert isinstance(error, SchemaError)
        assert str(error).startswith(f"{faulty}:{len(lines)}: image {cells[0]!r}: variable 'age'")
        assert faulty_peak <= 1.25 * clean_peak, (faulty_peak / 2**20, clean_peak / 2**20)

    @pytest.mark.parametrize(
        "read, module, header, row",
        [
            (_trials, trials, _TRIAL_HEADER, "a_9,b_9,genuine"),
            (_trials, trials, _TRIAL_HEADER, "a_9,b_9,maybe,0.1"),
            (_trials, trials, _TRIAL_HEADER, "a_9,b_9,genuine,0_1"),
            (_trials, trials, _TRIAL_HEADER, f"a_9,{'x' * (_LIMIT + 1)},genuine,0.1"),
            (_trials, trials, _TRIAL_HEADER, "a_9,a_9,impostor,0.1"),
            (_trials, trials, _TRIAL_HEADER, "b_1,a_1,impostor,0.1"),
            (_mapped_trials, trials, _TRIAL_HEADER, "a_9,c_9,genuine,0.1"),
            (_mapped_trials, trials, _TRIAL_HEADER, "a_9,b_8,genuine,0.1"),
            (_attributes, cohort, _ATTRIBUTE_HEADER, "a_9,man"),
            (_attributes, cohort, _ATTRIBUTE_HEADER, "a_1,man,0.5"),
            (_attributes, cohort, _ATTRIBUTE_HEADER, "a_9,alien,0.5"),
            (_attributes, cohort, _ATTRIBUTE_HEADER, "a_9,man,1.5"),
        ],
        ids=["width", "label", "score", "oversized", "self-pair", "contradiction", "unknown",
             "mapped-contradiction", "cells", "duplicate", "level", "value"],
    )
    @pytest.mark.parametrize("chars", [1 << 16, 64], ids=["one-block", "blocks"])
    def test_faulty_file_is_opened_once(self, tmp_path, monkeypatch, read, module, header, row,
                                        chars):
        good = [f"a_{i},b_{i},genuine,0.{i}" if read is not _attributes else f"a_{i},woman,0.{i}"
                for i in range(8)]
        path = _write(tmp_path / "f.csv", "\n".join([header, *good, row, *good[:2]]) + "\n")
        opened = []

        def counted(name):
            opened.append(name)
            return open_text(name)

        monkeypatch.setattr(module, "open_text", counted)
        monkeypatch.setattr(inputs, "_BLOCK_CHARS", chars)
        outcome = _outcome(read, path)
        assert outcome[1].startswith(f"{path}:10: "), outcome
        assert opened == [path]
