"""The column-at-a-time CSV loader against the row-by-row reference reader, on seeded tables through
both of its paths (blocks split on line ends and commas, and csv.reader, which reads a file from the
first block that splitting cannot take), on hand-overs after split blocks, and seeded malformed
datasets through the command line."""
from __future__ import annotations

import csv
import io
import json
import shutil
from datetime import datetime
from types import SimpleNamespace

import numpy as np
import pytest

from relgnn import rdb
from relgnn.cli import main
from relgnn.rdb import Column, ColumnKind, Database, RdbError, Table, load_database, write_dataset

from oracles import reference_read_csv, table_named

TOKENS = ["a", "null", "a b", "é", "中文", "x\x00", "\x00", "tab\there", " ", "", "a,b", "two\nlines",
          'say "hi"', "cr\rhere", "\ufeffbom"]

# fields each kind accepts (the empty field is null) and fields it rejects
FIELDS = {
    "scalar": (["1_000", " 5 ", "١٢٣", "-0.0", "1e308", "", "3.25", "+7", ".5", "1E-5", "0"],
               ["nan", "inf", "-Infinity", "1e999", "abc", "0x10", " ", "1,5", "1__0"]),
    "datetime": (["2020-01-01", "2020-02-29T23:59:59", "2021-06-30 08:15", "20200101", "2020-01-01T10:00:00.000000",
                  ""],
                 ["2020-01-01T10:00:00+01:00", "2020-01-01T10:00:00Z", "2020-01-01T10:00:00.5", "2020-13-01",
                  "soon", "2021-02-29"]),
    "latlong": (["45.5,-120.25", "-90,180", " 1_0 , 5 ", "0,-0.0", ""],
                ["91.0,10.0", "0,180.5", "nan,0", "1,2,3", "x,1", "5"]),
    "categorical": (TOKENS, []),
    "text": (TOKENS, []),
}


def _reader_path(text: str) -> bool:
    """Whether csv.reader reads all of this text, which is shorter than csv's field size limit: whether
    it is empty or its header line holds a quote or a carriage return outside its line end. Otherwise
    the loader splits the header and then each block of lines that it can; csv.reader reads on from the
    first block that it cannot, as `test_hand_over_after_split_blocks` checks."""
    line, newline, _ = text.partition("\n")
    if newline:
        line = line.removesuffix("\r")
    return not text or '"' in line or "\r" in line


def _render(rows, quoted: bool, newline: str) -> str:
    def field(value: str) -> str:
        return '"' + value.replace('"', '""') + '"' if quoted else value

    return "".join(",".join(map(field, row)) + newline for row in rows)


def _outcome(load):
    """("ok", the repr of every cell, column by column) or ("error", the message)."""
    try:
        return "ok", [[repr(cell) for cell in cells] for cells in load()]
    except RdbError as exc:
        return "error", str(exc)


def _check_file(tmp_path, table: Table, text: str):
    """The loader's outcome on a one-table dataset holding `text`, which must equal the reference
    reader's; returns that outcome."""
    (tmp_path / "schema.json").write_text(json.dumps({"tables": [{
        "name": table.name, "file": "T.csv",
        "columns": [{"name": col.name, "kind": col.kind.tag} for col in table.columns]}]}))
    (tmp_path / "T.csv").write_bytes(text.encode("utf-8"))
    got = _outcome(lambda: [col.values for col in load_database(tmp_path).tables[0].columns])
    want = _outcome(lambda: reference_read_csv(tmp_path / "T.csv", table))
    assert got == want, text
    return got


@pytest.mark.parametrize("blocks", [(rdb._BLOCK_CHARS, rdb._BLOCK_ROWS), (7, 2)], ids=["default", "tiny"])
def test_csv_paths_fuzz_equal_the_reference_reader(tmp_path, monkeypatch, blocks):
    """Seeded tables of every kind, with accepted and rejected fields, quotes, blank lines, byte order
    marks, CRLF and lone CR line ends and missing final newlines, each loaded through both paths: every
    cell, or the message of the first fault, equals the reference's. Tiny blocks cross block edges."""
    monkeypatch.setattr(rdb, "_BLOCK_CHARS", blocks[0])
    monkeypatch.setattr(rdb, "_BLOCK_ROWS", blocks[1])
    seen = {(path, status): 0 for path in (False, True) for status in ("ok", "error")}
    for seed in range(150):
        rng = np.random.default_rng(seed)
        kinds = [str(k) for k in rng.choice(sorted(FIELDS), size=int(rng.integers(0, 5)))]
        table = Table("T", [Column("id", ColumnKind("primary_key"), False)]
                      + [Column(f"c{i}", ColumnKind(kind), False) for i, kind in enumerate(kinds)])
        bad_rate = 0.0 if seed % 2 else 0.03
        nrows = int(rng.integers(0, 15))
        rows = [[f"r{r}"] for r in range(nrows)]
        for kind in kinds:
            accepted, rejected = FIELDS[kind]
            for row in rows:
                pool = rejected if rejected and rng.random() < bad_rate else accepted
                row.append(pool[int(rng.integers(0, len(pool)))])
        order = rng.permutation(len(table.columns)) if rng.random() < 0.3 else np.arange(len(table.columns))
        lines = [[table.columns[i].name for i in order]] + [[row[i] for i in order] for row in rows]
        if rng.random() < 0.1:  # a blank line, which csv.reader reads as a row of no fields
            lines.insert(int(rng.integers(1, len(lines) + 1)), [])
        newline = ("\n", "\r\n", "\r")[int(rng.choice(3, p=[0.45, 0.45, 0.1]))]
        for quoted in (False, True):
            text = ("\ufeff" if rng.random() < 0.05 else "") + _render(lines, quoted, newline)
            if rng.random() < 0.2:
                text = text[:len(text) - len(newline)]  # no final newline
            status, _ = _check_file(tmp_path, table, text)
            seen[_reader_path(text), status] += 1
    assert min(seen.values()) >= 10, seen


@pytest.mark.parametrize("kind", sorted(FIELDS))
def test_each_listed_field_through_both_paths(tmp_path, kind):
    """Every listed field alone in a cell, unquoted and quoted: an accepted one loads as the reference
    reads it, a rejected one fails with the reference's message."""
    accepted, rejected = FIELDS[kind]
    table = Table("T", [Column("id", ColumnKind("primary_key"), False), Column("v", ColumnKind(kind), False)])
    for value, status in [(v, "ok") for v in accepted] + [(v, "error") for v in rejected]:
        for quoted in (False, True):
            text = _render([["id", "v"], ["r0", value], ["r1", ""]], quoted, "\n")
            if "," in value or "\n" in value or "\r" in value or '"' in value:
                if not quoted:
                    continue  # unquoted, the field would not be one field
            elif kind not in ("categorical", "text"):
                assert _reader_path(text) == quoted
            got = _check_file(tmp_path, table, text)
            assert got[0] == status, (value, got)


def test_csv_shapes_equal_the_reference_reader(tmp_path):
    """Files around the edges of the split path: empty, header only, blank lines, no final newline,
    CRLF, a byte order mark and a field over csv's field size limit."""
    table = Table("T", [Column("id", ColumnKind("primary_key"), False), Column("x", ColumnKind("scalar"), False)])
    long = "z" * (csv.field_size_limit() + 1)
    texts = ["", "\n", "id,x", "id,x\n", "id,x\r\n", "id,x\nr0,1", "id,x\nr0,1\n\n", "id,x\n\nr0,1\n",
             "id,x\r\nr0,1\r\nr1,2", "\ufeffid,x\nr0,1\n", "x,id\n1,r0\n", "id,x\nr0,1\nr1\n", "id,x\nr0,1,2\n",
             f"id,x\nr0,1\nr1,{long}\n", f"id,x\nr0,abc\n{long},1\n", f"id,{long}\n", f"id,x\n{long}\n"]
    statuses = [_check_file(tmp_path, table, text)[0] for text in texts]
    # a row of 2 + 3k fields puts its line end where a row of two fields would
    statuses += [_check_file(tmp_path, table, text)[0] for text in ("id,x\nr0,1,r1,2,3\n", "id,x\nr0,1\nr1,a,b,c,d\n")]
    # with one column, a blank line and a row of one field differ only in csv.reader's eyes
    table = Table("T", [Column("id", ColumnKind("primary_key"), False)])
    for text in ("id\nr0\n\nr1\n", "id\n\n", "id\r\nr0\r\n\r\n", "id\nr0\nr1,a,b\n", "id\nr0\nr1\n"):
        statuses.append(_check_file(tmp_path, table, text)[0])
    assert statuses.count("ok") >= 7 and statuses.count("error") >= 10


def _hand_over_text(fault: str, eol: str, bad_cell: bool) -> str:
    """A file of columns id and x and 12 rows, whose lines end in `eol` and whose `fault` turns up at
    row 6; with `bad_cell`, row 9 holds an x that is no scalar."""
    lines = [f"r{r},{r}" for r in range(12)]
    ends = [eol] * 12
    if bad_cell:
        lines[9] = "r9,abc"
    if fault == "quote":
        lines[6] = 'r6,"6"'
    elif fault == "stray_cr":
        ends[6] = "\r"
    elif fault == "mixed_line_ends":
        ends[6:] = ["\n" if eol == "\r\n" else "\r\n"] * 6
    elif fault == "blank_line":
        ends[5] += eol
    elif fault == "ragged_row":
        lines[6] = "r6,6,6"
    else:  # long_field
        lines[6] = "r6," + "6" * 70
    return "id,x" + eol + "".join(line + end for line, end in zip(lines, ends))


@pytest.mark.parametrize("bad_cell", [False, True], ids=["clean", "bad_cell"])
@pytest.mark.parametrize("eol", ["\n", "\r\n"], ids=["lf", "crlf"])
@pytest.mark.parametrize("fault", ["quote", "stray_cr", "mixed_line_ends", "blank_line", "ragged_row", "long_field"])
def test_hand_over_after_split_blocks(tmp_path, monkeypatch, fault, eol, bad_cell):
    """A quote, a stray carriage return, a change of line end, a blank line, a ragged row or a field
    over csv's size limit after two split blocks: csv.reader reads on from that block's first row, the
    outcome equals the reference's, and an error names its row counted from the start of the file."""
    monkeypatch.setattr(rdb, "_BLOCK_CHARS", 8)
    monkeypatch.setattr(rdb, "_BLOCK_ROWS", 3)
    taken = []  # what _split_block returned for each block
    split = rdb._split_block
    monkeypatch.setattr(rdb, "_split_block", lambda *args: taken.append(split(*args)) or taken[-1])
    table = Table("T", [Column("id", ColumnKind("primary_key"), False), Column("x", ColumnKind("scalar"), False)])
    limit = csv.field_size_limit(64)
    try:
        status, got = _check_file(tmp_path, table, _hand_over_text(fault, eol, bad_cell))
    finally:
        csv.field_size_limit(limit)
    assert taken.index(None) >= 2 and all(taken[:taken.index(None)]), taken
    loads = fault in ("quote", "stray_cr", "mixed_line_ends")
    if loads and not bad_cell:
        assert status == "ok" and len(got[0]) == 12, got
    else:
        assert status == "error", got
        assert fault == "long_field" or f"row {9 if loads else 6}" in got, got


def _streams(monkeypatch) -> list[str]:
    """The text of each stream that the loader gives csv.reader, in order, as it makes them."""
    texts = []

    def string_io(text, newline=None):
        texts.append(text)
        return io.StringIO(text, newline=newline)

    monkeypatch.setattr(rdb, "io", SimpleNamespace(StringIO=string_io))
    return texts


@pytest.mark.parametrize("case", ["quoted_line_feed_ends_a_slice", "hand_over_across_slices", "fully_quoted"])
def test_csv_reader_reads_one_slice_at_a_time(tmp_path, monkeypatch, case):
    """A quoted field whose line feed ends a slice, a hand-over after split blocks that csv.reader reads
    across several slices, and a fully quoted file: each outcome equals the reference's, and csv.reader
    reads the file's last slices, one stream of one slice each."""
    monkeypatch.setattr(rdb, "_BLOCK_CHARS", 16)
    streams = _streams(monkeypatch)
    table = Table("T", [Column("id", ColumnKind("primary_key"), False), Column("x", ColumnKind("text"), False)])
    lines = [["id", "x"]] + [[f"r{r}", f"word {r}"] for r in range(40)]
    if case == "fully_quoted":
        text = _render(lines, True, "\n")
    else:
        lines[1 if case == "quoted_line_feed_ends_a_slice" else 20][1] = '"0123456789abcdef\nend"'
        text = _render(lines, False, "\n")
    status, got = _check_file(tmp_path, table, text)
    assert status == "ok" and len(got[0]) == 40
    assert len(streams) >= 3 and text.endswith("".join(streams))
    assert all(piece.find("\n", 16) in (-1, len(piece) - 1) for piece in streams), streams
    if case == "quoted_line_feed_ends_a_slice":
        assert streams[0] == 'r0,"0123456789abcdef\n'
    elif case == "hand_over_across_slices":
        assert streams[0].startswith("r") and "".join(streams).count("\n") < 40
    else:
        assert "".join(streams) == text


# seeded malformed datasets through the command line


def _dataset() -> Database:
    """Three tables with a column of every kind and a foreign key, as write_dataset writes them; only C,
    whose latlong cells hold commas, needs quotes."""
    a = Table("A", [
        Column("id", ColumnKind("primary_key"), False, [f"a{r}" for r in range(6)]),
        Column("x", ColumnKind("scalar"), False, [1.5, None, -2.0, 3.0, 0.25, 8.0]),
        Column("when", ColumnKind("datetime"), False, [datetime(2020, 1, 1 + r, r) for r in range(6)]),
        Column("note", ColumnKind("text"), False, ["one two", "three", None, "four five six", "x", "y"]),
        Column("color", ColumnKind("categorical"), False, ["red", "blue", "red", None, "blue", "green"]),
        Column("label", ColumnKind("categorical"), True, ["1", "0", "1", "0", "1", "0"]),
    ])
    b = Table("B", [
        Column("id", ColumnKind("primary_key"), False, [f"b{r}" for r in range(9)]),
        Column("a", ColumnKind("foreign_key", ("A", "id")), False, [f"a{r % 6}" for r in range(9)]),
        Column("y", ColumnKind("scalar"), False, [float(r) for r in range(9)]),
    ])
    c = Table("C", [
        Column("id", ColumnKind("primary_key"), False, [f"c{r}" for r in range(4)]),
        Column("pos", ColumnKind("latlong"), False, [(1.0, 2.0), None, (-3.5, 4.0), (5.0, -6.0)]),
    ])
    db = Database([a, b, c], {}, [], [(0, 5)])
    rdb._resolve_foreign_keys(db, strict=True)
    return db


_BAD_CELLS = {"scalar": ["nan", "abc", "1e999"], "datetime": ["2020-01-01T10:00:00Z", "2020-01-01T00:00:00.5", "x"],
              "latlong": ["91.0,0.0", "1", "a,b"]}


def _mutate(rng, db: Database, files: dict, mutation: str):
    """Apply one fault to the CSV rows in `files` (table name -> rows, header first); returns the
    command to run, the table whose file the message must name, and what else it must contain."""
    name = db.tables[int(rng.integers(0, len(db.tables)))].name
    if mutation == "bad_cell":
        kind = sorted(_BAD_CELLS)[int(rng.integers(0, len(_BAD_CELLS)))]
        name = "C" if kind == "latlong" else "A"
    elif mutation == "duplicate_key":
        name = "A"  # the key that B references
    elif mutation == "dangling":
        name = "B"
    rows = files[name]
    r = int(rng.integers(0, len(rows) - 1))  # a data row, counted from 0 after the header
    if mutation == "ragged":
        rows[r + 1] = rows[r + 1][:-1] if rng.random() < 0.5 else rows[r + 1] + ["extra"]
        return "validate", name, [f"row {r}: expected {len(rows[0])} fields, got {len(rows[r + 1])}"]
    if mutation == "blank":
        rows.insert(r + 1, [])
        return "validate", name, [f"row {r}: expected {len(rows[0])} fields, got 0"]
    if mutation == "missing":
        c = int(rng.integers(0, len(rows[0])))
        column = rows[0][c]
        for row in rows:
            del row[c]
        return "validate", name, [f"column {column!r} missing from"]
    if mutation == "undeclared":
        rows[0][int(rng.integers(0, len(rows[0])))] = "nope"
        return "validate", name, ["undeclared column 'nope' in"]
    if mutation == "duplicate_header":
        rows[0][int(rng.integers(1, len(rows[0])))] = rows[0][0]
        return "validate", name, [f"duplicate column {rows[0][0]!r} in the header of"]
    if mutation == "bad_cell":
        ci = next(ci for ci, col in enumerate(table_named(db, name).columns) if col.kind.tag == kind)
        rows[r + 1][ci] = _BAD_CELLS[kind][int(rng.integers(0, len(_BAD_CELLS[kind])))]
        column = table_named(db, name).columns[ci].name
        return "validate", name, [f"unparseable cell at table {name} row {r} column {column}: "]
    if mutation == "duplicate_key":
        first, second = sorted(rng.choice(len(rows) - 1, size=2, replace=False).tolist())
        rows[second + 1][0] = rows[first + 1][0]
        return "validate", name, [f"duplicate key {rows[first + 1][0]!r} at table A row {second} column id"]
    rows[r + 1][1] = "a99"  # a foreign-key cell that names no row: strict commands fail on it
    return "graph-stats", name, [f"dangling reference at table B row {r} column a: 'a99' not found in A.id"]


MUTATIONS = ("ragged", "blank", "missing", "undeclared", "duplicate_header", "bad_cell", "duplicate_key",
             "dangling")


def test_malformed_csv_fuzz_fails_located(capsys, tmp_path):
    """Seeded faults in the CSV files of a valid dataset, quoted and unquoted: each command exits 1 with
    one line that names the file, and the table, row and column where there is one, and no traceback.
    Non-UTF-8 bytes fail naming the file; a dangling key that `validate` reads without strictness is
    counted instead."""
    base = tmp_path / "base"
    write_dataset(_dataset(), base)
    db = load_database(base)
    for seed in range(160):
        rng = np.random.default_rng(seed)
        data = tmp_path / f"d{seed}"
        shutil.copytree(base, data)
        files = {t.name: list(csv.reader((base / f"{t.name}.csv").open(newline="", encoding="utf-8")))
                 for t in db.tables}
        mutation = MUTATIONS[seed % len(MUTATIONS)]
        command, name, expected = _mutate(rng, db, files, mutation)
        quoting = csv.QUOTE_ALL if rng.random() < 0.5 else csv.QUOTE_MINIMAL
        for table, rows in files.items():
            with open(data / f"{table}.csv", "w", newline="", encoding="utf-8") as handle:
                csv.writer(handle, quoting=quoting).writerows(rows)
        if seed % 5 == 0:  # a byte that is not UTF-8, anywhere in one file
            path = data / f"{name}.csv"
            raw = path.read_bytes()
            at = int(rng.integers(0, len(raw)))
            path.write_bytes(raw[:at] + b"\xff" + raw[at:])
            expected = [f"not UTF-8 text (invalid start byte at byte {at})"]
        capsys.readouterr()
        code = main([command, "--dataset", str(data)])
        err = capsys.readouterr().err
        assert code == 1 and "Traceback" not in err, (seed, err)
        message = err.splitlines()[-1]
        assert message.startswith("error: ") and str(data / f"{name}.csv") in message, (seed, message)
        assert all(e in message for e in expected), (seed, mutation, message)
        if mutation == "dangling" and seed % 5:
            capsys.readouterr()
            with pytest.warns(UserWarning, match="1 dangling"):
                assert main(["validate", "--dataset", str(data)]) == 0
            assert json.loads(capsys.readouterr().out)["dangling_cells"] == 1
