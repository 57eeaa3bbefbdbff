"""Tests for the block CSV reader both input readers share: with any
block size it reads the rows and line numbers ``csv.reader`` reads and
flags the block of the first fault, and the trial and attribute readers
built on it give the same result whatever the block size."""

import csv
import io
from contextlib import contextmanager

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from faceaudit import inputs
from faceaudit.cohort import read_attributes
from faceaudit.errors import DataError, SchemaError
from faceaudit.inputs import csv_columns, csv_header
from faceaudit.schema import default_schema
from faceaudit.trials import read_trials_csv

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
        blocks = []
        with _field_limit(limit):
            records, error = _reference(text)
            fh = io.StringIO(text, newline="")
            assert csv_header(fh, "f", "test") == ["h"]
            for first_line, columns in csv_columns(fh, width):
                blocks.append((first_line, columns))
                if columns is None:
                    break
        records = records[1:]  # the header
        faults = [line for line, row in records if row and len(row) != width]
        fault = min(faults + ([error[0]] if error else []), default=None)

        starts = [first_line for first_line, _ in blocks]
        assert starts == sorted(set(starts)) and starts[:1] in ([], [2])
        if blocks and blocks[-1][1] is None:  # a fault the caller names by reading again
            assert fault is not None and fault >= starts[-1]
            blocks = blocks[:-1]
        else:  # every record read
            assert fault is None
            starts.append(float("inf"))
            read = [row for _, columns in blocks for row in zip(*columns)]
            assert read == [tuple(row) for _, row in records if row]
        for (first_line, columns), end in zip(blocks, starts[1:]):
            expected = [tuple(row) for line, row in records if row and first_line <= line < end]
            assert len(columns) == width
            assert list(zip(*columns)) == expected


_TRIAL_HEADER = "probe_image_id,reference_image_id,label,score"
_TRIAL_CELL = st.sampled_from(["a", "b", "c", 'q"x', "c,d", "e\nf", "g\rh", "genuine", "impostor",
                               "maybe", "0.5", "-1", "", "x", "0_5", " 1 "])
_ATTRIBUTE_HEADER = "image_id,gender,blur"
_ATTRIBUTE_CELL = st.sampled_from(["a", "b", "c", 'q"x', "c,d", "e\nf", "g\rh", "man", "woman",
                                   "1", "alien", "", "0.1", "1.5", "0_1", "nan", " 0.25 "])


def _outcome(read, path):
    """What a reader gives: its result's arrays, or its error, which may
    only be a DataError or a SchemaError."""
    try:
        return read(path)
    except (DataError, SchemaError) as exc:
        return type(exc).__name__, str(exc)


def _trials(path):
    trials, scores = read_trials_csv(path)
    return trials.image_ids, trials.identities, trials.pairs.tolist(), scores.tobytes()


def _attributes(path):
    table = read_attributes(path, default_schema())
    return table.image_ids, table.values.tobytes()


class TestReadersIgnoreBlockSize:
    @pytest.mark.parametrize(
        "read, header, cells",
        [(_trials, _TRIAL_HEADER, _TRIAL_CELL), (_attributes, _ATTRIBUTE_HEADER, _ATTRIBUTE_CELL)],
        ids=["trials", "attributes"],
    )
    @settings(
        max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(data=st.data())
    def test_same_outcome(self, tmp_path_factory, monkeypatch, read, header, cells, data):
        width = header.count(",") + 1
        body = data.draw(st.one_of(_written(cells, st.just(width)), _RAW), label="body")
        limit = data.draw(st.sampled_from([4, _LIMIT]), label="limit")
        path = tmp_path_factory.getbasetemp() / "body.csv"
        path.write_text(header + "\n" + body, encoding="utf-8", newline="")
        with _field_limit(limit):
            whole = _outcome(read, path)
            monkeypatch.setattr(inputs, "_BLOCK_CHARS", data.draw(st.integers(1, 12), label="chars"))
            monkeypatch.setattr(inputs, "_BLOCK_ROWS", data.draw(st.integers(1, 4), label="rows"))
            assert _outcome(read, path) == whole


def _write(path, text):
    path.write_text(text, encoding="utf-8", newline="")
    return path


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
