"""Survey-extract ingestion, discretization, and contingency tables.

The observable record is a 4-tuple of discrete codes: a reported outcome
``x`` in {1..S_X}, a binary auxiliary indicator ``y`` in {0,1}, a second
discretized auxiliary measure ``z`` in {1..S_Z}, and a covariate-cell index
``w`` packing a short vector of binary covariates. Records exist only while
they are read: ``ingest`` (or ``Dataset.from_records``) counts them once into
a (cell, x, y, z) table, and a ``Dataset`` is that table and nothing else.
Everything downstream (tests, identification, estimation, bootstrap
redraws) reads it, a cell at a time as ``tabulate``'s (S_X, 2, S_Z) count
array, whose pmf is counts / n; cell labels live only in ``Dataset.w_labels``.

Discretization conventions
--------------------------
* ``median_split``: 1 iff strictly above the sample median (midpoint of the
  two central order statistics for even n).
* ``tercile_bin``: nearest-rank 33rd/66th percentiles; a value equal to a
  percentile boundary falls in the lower bin.
* Covariate cells: binary covariates packed little-endian in declared column
  order, so cell index = sum(bit_k * 2**k).
"""

from __future__ import annotations

import configparser
import csv
import io
import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, EmptyCellError, SchemaError

MAX_W_COLUMNS = 8

__all__ = [
    "Schema",
    "ExclusionReport",
    "Dataset",
    "load_schema",
    "ingest",
    "median_split",
    "tercile_bin",
    "tabulate",
    "nearest_rank",
    "cell_rows",
    "design_columns",
    "cell_labels",
]


# ---------------------------------------------------------------------------
# Schema
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Schema:
    """Column mapping and discretization rules for one survey extract.

    ``x_recode`` maps raw outcome codes to {1..S_X} and must be total on the
    declared raw codes and surjective onto {1..S_X}. ``z_binning`` is either
    the string ``"tercile"`` or an increasing tuple of explicit cuts
    (bin 1: v <= c1, bin k: c_{k-1} < v <= c_k, top bin: v > c_last).
    ``y_binning`` is either ``"median"`` or an explicit threshold (code 1
    iff value > threshold).
    """

    x_column: str
    y_column: str
    z_column: str
    w_columns: tuple[str, ...]
    x_recode: dict[int, int]
    z_binning: str | tuple[float, ...] = "tercile"
    y_binning: str | float = "median"
    w_letters: tuple[str, ...] | None = None

    def __post_init__(self):
        if len(self.w_columns) > MAX_W_COLUMNS:
            raise SchemaError(
                f"{len(self.w_columns)} covariate columns; at most "
                f"{MAX_W_COLUMNS} supported (2^|W| cells must stay enumerable)"
            )
        if not self.x_recode:
            raise SchemaError("x_recode is empty")
        targets = set(self.x_recode.values())
        s_x = max(targets)
        if targets != set(range(1, s_x + 1)):
            raise SchemaError(
                f"x_recode targets {sorted(targets)} are not exactly 1..{s_x}"
            )
        if isinstance(self.z_binning, tuple):
            cuts = self.z_binning
            if (len(cuts) < 1 or any(a >= b for a, b in zip(cuts, cuts[1:]))
                    or not np.isfinite(cuts).all()):
                raise SchemaError("explicit z cuts must be finite and strictly increasing")
        elif self.z_binning != "tercile":
            raise SchemaError(f"unknown z_binning {self.z_binning!r}")
        if isinstance(self.y_binning, str) and self.y_binning != "median":
            raise SchemaError(f"unknown y_binning {self.y_binning!r}")
        if not isinstance(self.y_binning, str) and not np.isfinite(self.y_binning):
            raise SchemaError(f"the y threshold must be finite, got {self.y_binning}")
        if self.w_letters is not None:
            if len(self.w_letters) != len(self.w_columns):
                raise SchemaError("w_letters must match w_columns in length")
            if len(set(self.w_letters)) != len(self.w_letters):
                raise SchemaError("w_letters must be distinct")

    @property
    def s_x(self) -> int:
        return max(self.x_recode.values())

    @property
    def s_z(self) -> int:
        if self.z_binning == "tercile":
            return 3
        return len(self.z_binning) + 1

    @property
    def n_w_cells(self) -> int:
        return 2 ** len(self.w_columns)

    def letters(self) -> tuple[str, ...] | None:
        """Declared letters, else the initials unless they collide (None)."""
        if self.w_letters is not None:
            return self.w_letters
        initials = tuple(c[0].upper() for c in self.w_columns)
        return initials if len(set(initials)) == len(initials) else None


def load_schema(path_or_text) -> Schema:
    """Parse a schema configuration file (INI grammar, see README).

    Accepts a filesystem path, or an already-read text blob (anything
    containing a newline is treated as text).
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=(";",), interpolation=None)
    text = str(path_or_text)
    try:
        if "\n" in text:
            parser.read_string(text)
        else:
            with open(text, encoding="utf-8") as handle:
                parser.read_file(handle)
    except OSError as exc:
        raise SchemaError(f"cannot read schema file: {exc}") from exc
    except configparser.Error as exc:
        raise SchemaError(f"malformed schema file: {exc}") from exc

    try:
        cols = parser["columns"]
        x_column = cols["x"].strip()
        y_column = cols["y"].strip()
        z_column = cols["z"].strip()
        w_columns = tuple(
            c.strip() for c in cols.get("w", "").split(",") if c.strip()
        )
        recode_txt = parser["recode"]["x"]
    except KeyError as exc:
        raise SchemaError(f"schema missing required key: {exc}") from exc

    x_recode: dict[int, int] = {}
    for pair in recode_txt.split():
        try:
            raw, code = pair.split(":")
            x_recode[int(raw)] = int(code)
        except ValueError as exc:
            raise SchemaError(f"bad recode pair {pair!r}") from exc

    def binning(key: str, default: str, numeric: str, count: int | None):
        """The ``key`` rule of [binning]: ``default`` alone, or ``numeric``
        and its numbers (``count`` of them, if not None)."""
        rule = parser.get("binning", key, fallback=default)
        kind, *values = rule.split() or [""]
        try:
            if kind == default and not values:
                return default
            if kind == numeric and values and count in (None, len(values)):
                return tuple(float(v) for v in values)
        except ValueError:
            pass
        numbers = "one number" if count == 1 else "numbers"
        raise SchemaError(f"bad {key} binning rule {rule!r}: expected {default!r}, "
                          f"or {numeric!r} followed by {numbers}")

    z_binning = binning("z", "tercile", "cuts", None)
    y_binning = binning("y", "median", "above", 1)
    if isinstance(y_binning, tuple):
        [y_binning] = y_binning

    w_letters = None
    if parser.has_option("labels", "w_letters"):
        w_letters = tuple(
            s.strip() for s in parser["labels"]["w_letters"].split(",") if s.strip()
        )

    return Schema(
        x_column=x_column,
        y_column=y_column,
        z_column=z_column,
        w_columns=w_columns,
        x_recode=x_recode,
        z_binning=z_binning,
        y_binning=y_binning,
        w_letters=w_letters,
    )


# ---------------------------------------------------------------------------
# The count table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExclusionReport:
    """Counts of records dropped during ingestion, by reason."""

    n_read: int
    n_kept: int
    reasons: dict[str, int] = field(default_factory=dict)

    @property
    def n_excluded(self) -> int:
        return self.n_read - self.n_kept

    def to_dict(self) -> dict:
        return {
            "n_read": self.n_read,
            "n_kept": self.n_kept,
            "n_excluded": self.n_excluded,
            "reasons": dict(sorted(self.reasons.items())),
        }


def cell_rows(n_cols: int) -> np.ndarray:
    """Covariate rows [1, bits] of all 2^n_cols cells, one per cell index.

    Bits are unpacked little-endian, so row c is (1, c & 1, (c >> 1) & 1, ...).
    """
    cells = np.arange(2**n_cols)[:, None]
    bits = (cells >> np.arange(n_cols)) & 1
    return np.hstack([np.ones_like(cells), bits]).astype(float)


def design_columns(w_columns: tuple[str, ...]) -> tuple[str, ...]:
    """Names of the columns of ``cell_rows``: the intercept, then the covariates."""
    return ("const", *w_columns)


def cell_labels(n_cols: int, letters: tuple[str, ...] | None = None) -> tuple[str, ...]:
    """Display labels of all 2^n_cols covariate cells, one per cell index: the
    letters of the set bits, '0' if none. ``letters`` default to A, B, C, ..."""
    if letters is None:
        letters = tuple(chr(ord("A") + k) for k in range(n_cols))
    return tuple(
        "".join(letter for k, letter in enumerate(letters) if (cell >> k) & 1) or "0"
        for cell in range(2**n_cols)
    )


def _count_codes(x, y, z, w, support: tuple[int, int, int],
                 n_cells: int) -> np.ndarray:
    """The (cell, x, y, z) count table of int64 code arrays, one entry per
    record, each checked against its support: ``x`` in {1..S_X}, ``y`` in
    {0,1}, ``z`` in {1..S_Z}, ``w`` in {0..n_cells-1}."""
    s_x, s_y, s_z = support
    if s_y != 2:
        raise DataError("the auxiliary indicator must be binary")
    if not (x.shape == y.shape == z.shape == w.shape) or x.ndim != 1:
        raise DataError("code arrays differ in length")
    for arr, lo, hi, name in (
        (x, 1, s_x, "x"), (y, 0, 1, "y"), (z, 1, s_z, "z"), (w, 0, n_cells - 1, "w"),
    ):
        if arr.size and (arr.min() < lo or arr.max() > hi):
            raise DataError(f"{name} codes outside declared support [{lo},{hi}]")
    flat = ((w * s_x + x - 1) * 2 + y) * s_z + z - 1
    counts = np.bincount(flat, minlength=n_cells * s_x * 2 * s_z)
    return counts.reshape(n_cells, s_x, 2, s_z)


@dataclass(frozen=True)
class Dataset:
    """A survey sample as its (cell, x, y, z) count table, immutable.

    ``counts[w, x-1, y, z-1]`` is the number of records in covariate cell
    ``w`` with codes (x, y, z); the support is the table's (S_X, 2, S_Z)
    shape. ``w_labels`` holds one display label per covariate cell.
    """

    counts: np.ndarray
    w_columns: tuple[str, ...] = ()
    w_labels: tuple[str, ...] = ("0",)

    def __post_init__(self):
        counts = np.ascontiguousarray(self.counts, dtype=np.int64)
        counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)
        n_cells = 2 ** len(self.w_columns)
        if counts.ndim != 4 or counts.shape[0] != n_cells:
            raise DataError("counts must be a (2^|w_columns|, S_X, 2, S_Z) table")
        if counts.shape[2] != 2:
            raise DataError("the auxiliary indicator must be binary")
        if (counts < 0).any():
            raise DataError("negative cell count")
        if self.n == 0:
            raise DataError("empty dataset")
        if len(self.w_labels) != n_cells:
            raise DataError("w_labels length must be 2^|w_columns|")
        if len(set(self.w_labels)) != n_cells:
            raise DataError("covariate cell labels must be unique")

    @classmethod
    def from_records(cls, x, y, z, w, support: tuple[int, int, int],
                     w_columns: tuple[str, ...] = (),
                     w_labels: tuple[str, ...] = ("0",)) -> Dataset:
        """Count recoded records: ``x`` in {1..S_X}, ``y`` in {0,1}, ``z`` in
        {1..S_Z}, ``w`` in {0..2^|W|-1}, one entry per record."""
        x, y, z, w = (np.asarray(a, dtype=np.int64) for a in (x, y, z, w))
        counts = _count_codes(x, y, z, w, support, 2 ** len(w_columns))
        return cls(counts, w_columns, w_labels)

    @property
    def support(self) -> tuple[int, int, int]:
        return self.counts.shape[1:]  # type: ignore[return-value]

    @property
    def n(self) -> int:
        return int(self.counts.sum())

    @property
    def n_w_cells(self) -> int:
        return 2 ** len(self.w_columns)

    def cell_counts(self) -> np.ndarray:
        """Record count per covariate cell, length 2^|W|."""
        return self.counts.sum(axis=(1, 2, 3))

    def outcome_counts(self) -> np.ndarray:
        """Record count per (covariate cell, outcome level), (2^|W|, S_X)."""
        return self.counts.sum(axis=(2, 3))


# ---------------------------------------------------------------------------
# Discretization
# ---------------------------------------------------------------------------


def median_split(values) -> np.ndarray:
    """Binary-code a real list: 1 iff strictly above the sample median."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise DataError("median_split of an empty list")
    return (arr > np.median(arr)).astype(np.int64)


def nearest_rank(sorted_values: np.ndarray, level: float) -> float:
    """The order statistic at ceil(level * n) of an ascending array."""
    rank = int(np.ceil(level * sorted_values.size))
    return float(sorted_values[max(rank, 1) - 1])


def tercile_bin(values) -> np.ndarray:
    """Code a real list into {1,2,3} by nearest-rank 33rd/66th percentiles.

    Boundary ties go to the lower bin: bin 1 is v <= p33, bin 2 is
    p33 < v <= p66, bin 3 is v > p66.
    """
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise DataError("tercile_bin of an empty list")
    ordered = np.sort(arr)
    p33 = nearest_rank(ordered, 0.33)
    p66 = nearest_rank(ordered, 0.66)
    codes = np.ones(arr.size, dtype=np.int64)
    codes[arr > p33] = 2
    codes[arr > p66] = 3
    return codes


def _apply_cuts(values: np.ndarray, cuts: tuple[float, ...]) -> np.ndarray:
    """Codes 1 + the number of (strictly increasing) cuts below each finite value."""
    return np.searchsorted(cuts, values, side="left").astype(np.int64) + 1


# ---------------------------------------------------------------------------
# Ingestion
# ---------------------------------------------------------------------------


# Characters ingest reads per block, before it finishes the block's last
# line; what ingest holds at once is bounded by one block.
INGEST_BLOCK_CHARS = 1 << 16

# Widest field the integer parser reads: 18 digits are exact in int64.
_INT_DIGITS = 18


def _blocks(stream):
    """The text of ``stream`` in blocks of whole lines."""
    while text := stream.read(INGEST_BLOCK_CHARS):
        if not text.endswith("\n"):
            text += stream.readline()
        yield text


def _int_fields(text: str, n_fields: int, cols: list[int]) -> np.ndarray | None:
    """Fields ``cols`` of a block of integer lines as floats, one row a line.

    None unless the block is ASCII digits, commas and line ends ("\\n" or
    "\\r\\n"), every line has ``n_fields`` fields, and every field has 1 to
    ``_INT_DIGITS`` digits. A field's value is then exactly
    ``float(field)``: the int64 it spells, rounded to the nearest double.
    """
    if not text.isascii():
        return None
    buf = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    if buf[-1] != ord("\n"):  # the last line of the input lacks its line end
        buf = np.append(buf, np.uint8(ord("\n")))
    cr = buf == ord("\r")
    if cr.any():
        if (buf[np.flatnonzero(cr) + 1] != ord("\n")).any():
            return None  # a bare "\r", which csv.reader refuses
        buf = buf[~cr]
    # Bytes above "9" are not digits; those below "0" must be "," or "\n",
    # with a "\n" after every n_fields-th of them and nowhere else.
    if buf.max() > ord("9"):
        return None
    seps = np.flatnonzero(buf < ord("0"))
    n_lines = np.count_nonzero(buf == ord("\n"))
    if (seps.size != n_lines * n_fields
            or seps.size != n_lines + np.count_nonzero(buf == ord(","))
            or (buf[seps[n_fields - 1::n_fields]] != ord("\n")).any()):
        return None
    gaps = np.diff(seps, prepend=-1)  # one more than each field's width
    if gaps.min() < 2 or gaps.max() > _INT_DIGITS + 1:
        return None
    ends = seps.reshape(-1, n_fields)[:, cols]
    values = buf[ends - 1].astype(np.int64) - ord("0")
    widths = gaps.reshape(-1, n_fields)[:, cols] - 1
    for k in range(1, int(widths.max())):  # the digit k places left of the last
        digits = buf[ends - 1 - k].astype(np.int64) - ord("0")
        values += np.where(widths > k, digits, 0) * 10**k
    return values.astype(float)


def _number(row: list[str], i: int) -> float:
    """Field i of a row as a float; NaN when it is absent, empty or unparsable."""
    try:
        return float(row[i].strip())
    except (ValueError, IndexError):
        return np.nan


def _csv_fields(rows, cols: list[int]) -> np.ndarray:
    """Fields ``cols`` of the non-blank csv rows as floats, one row each."""
    rows = [row for row in rows if "".join(row).strip()]
    return np.column_stack([[_number(row, i) for row in rows] for i in cols])


def _field_blocks(stream, n_fields: int, cols: list[int]):
    """Fields ``cols`` of the data rows, a block at a time (see ``ingest``),
    each with whether ``_int_fields`` parsed it (then every field is a
    finite integer)."""
    for text in _blocks(stream):
        if '"' in text:  # csv.reader reads the rest, this block's line count at a time
            reader = csv.reader(itertools.chain(io.StringIO(text), stream))
            n_rows = text.count("\n") + 1
            while rows := list(itertools.islice(reader, n_rows)):
                yield _csv_fields(rows, cols), False
            return
        fields = _int_fields(text, n_fields, cols)
        if fields is not None:
            yield fields, True
            continue
        if not text.strip("\r\n"):
            continue  # empty lines only, which loadtxt would warn about
        lines = io.StringIO(text).readlines()
        try:
            fields = np.loadtxt(lines, delimiter=",", usecols=cols, comments=None,
                                quotechar=None, dtype=float, ndmin=2)
        except ValueError:
            fields = _csv_fields(csv.reader(lines), cols)
        yield fields, False


def _not_utf8(source, exc: UnicodeDecodeError) -> DataError:
    """The error for input that is not UTF-8, naming the first bad byte."""
    where = ""
    if not hasattr(source, "read"):  # exc.start counts from the decoder's buffer
        try:
            with open(source, "rb") as raw:
                raw.read().decode("utf-8")
        except UnicodeDecodeError as whole:
            exc, where = whole, f" at byte offset {whole.start}"
    bad = exc.object[exc.start]
    return DataError(f"input is not UTF-8 text: byte 0x{bad:02x}{where} ({exc.reason})")


def ingest(source, schema: Schema) -> tuple[Dataset, ExclusionReport]:
    """Read a delimited extract, apply the schema, and drop unusable rows.

    ``source`` is a path (UTF-8, a leading BOM ignored, any line ends) or an
    open text stream whose lines end at "\\n", with a header row naming all
    schema columns. Blank rows are skipped and not counted. Each needed field is ``float(field.strip())``,
    or NaN when it is missing, empty or unparsable. The exclusion rules are
    column masks, in priority order: ``missing_or_nonnumeric`` (any
    non-finite field), ``noninteger_x``, ``unmapped_x`` (an x code absent
    from the recode map), ``nonbinary_w`` (a covariate other than 0/1).
    Excluded rows are dropped listwise and tallied in the returned report
    under the first rule they fail; a rule that never fires has no entry.

    The lines after the header are read in blocks of ``INGEST_BLOCK_CHARS``
    characters, each finished at the end of its last line. A block of
    integer lines is parsed by ``_int_fields`` in one vectorized pass.
    ``np.loadtxt`` parses any other block without a quote character. Where
    it accepts a field, the value is ``float``'s; it rejects more (``1_0``,
    non-ASCII digits, empty fields, short rows, whitespace-only lines), and
    a block it rejects is parsed again by ``csv.reader`` and ``float``. Both
    skip empty lines, so every block gives the fields the ``csv.reader``
    path alone would. From the first block with a quote, ``csv.reader``
    reads the rest of the input, because a quoted field may span lines and
    blocks. Input that ``csv.reader`` refuses (a field over its size limit,
    a bare ``\\r`` inside a line of a stream) is a ``DataError``.

    Each block's kept rows are recoded, binned and added to the count table
    at once, so with fixed binning of y and z no record outlives its block.
    A ``median`` or ``tercile`` rule needs the whole column, so only then
    are the kept rows' codes and raw values held until the input ends.
    """
    if hasattr(source, "read"):
        stream = source
        close = False
    else:
        try:
            stream = open(source, encoding="utf-8-sig")
        except OSError as exc:
            raise DataError(f"cannot read input: {exc}") from exc
        close = True
    support = (schema.s_x, 2, schema.s_z)
    n_cells = schema.n_w_cells
    fixed_y = schema.y_binning != "median"
    fixed_z = schema.z_binning != "tercile"
    counts = np.zeros((n_cells, *support), dtype=np.int64)
    held: list[tuple[np.ndarray, ...]] = []  # kept rows, while a column is unbinned
    try:
        try:
            header = next(csv.reader(stream))
        except StopIteration:
            raise DataError("input has no header row") from None
        header = [h.strip() for h in header]
        needed = [schema.x_column, schema.y_column, schema.z_column, *schema.w_columns]
        missing = [c for c in needed if c not in header]
        if missing:
            raise SchemaError(f"input is missing declared columns: {missing}")
        cols = [header.index(c) for c in needed]
        # float64, exact for these bit sums: integer matmul has no BLAS path
        bit_values = 2.0 ** np.arange(len(schema.w_columns))
        reasons: dict[str, int] = {}
        n_read = 0
        for fields, integers in _field_blocks(stream, len(header), cols):
            n_read += len(fields)
            x, w = fields[:, 0], fields[:, 3:]
            x_codes = np.zeros(len(fields), dtype=np.int64)  # recode targets start at 1
            for raw, code in schema.x_recode.items():
                x_codes[x == raw] = code
            rules = {}  # in priority order: a row is tallied under the first it fails
            if not integers:  # the first two rules cannot fire on integer fields
                rules["missing_or_nonnumeric"] = ~np.isfinite(fields).all(axis=1)
                rules["noninteger_x"] = ~(np.isfinite(x) & (x == np.floor(x)))
            rules["unmapped_x"] = x_codes == 0
            rules["nonbinary_w"] = ((w != 0) & (w != 1)).any(axis=1)
            first = np.select(list(rules.values()), range(len(rules)),
                              default=len(rules))
            for reason, n in zip(rules, np.bincount(first, minlength=len(rules))):
                if n:
                    reasons[reason] = reasons.get(reason, 0) + int(n)
            keep = first == len(rules)
            y, z = fields[keep, 1], fields[keep, 2]
            if fixed_y:
                y = (y > float(schema.y_binning)).astype(np.int64)
            if fixed_z:
                z = _apply_cuts(z, schema.z_binning)
            rows = (x_codes[keep], y, z, (w[keep] @ bit_values).astype(np.int64))
            if fixed_y and fixed_z:
                counts += _count_codes(*rows, support, n_cells)
            else:
                held.append(rows)
    except UnicodeDecodeError as exc:
        raise _not_utf8(source, exc) from None
    except csv.Error as exc:  # an oversized field, a bare "\r" inside a line
        raise DataError(f"cannot parse input as CSV: {exc}") from None
    finally:
        if close:
            stream.close()

    report = ExclusionReport(n_read=n_read, n_kept=n_read - sum(reasons.values()),
                             reasons=reasons)
    if not report.n_kept:
        raise DataError(
            f"no usable records after exclusions "
            f"(read {n_read}, dropped {report.n_excluded})"
        )
    if held:
        x, y, z, w = (np.concatenate(c) for c in zip(*held))
        del held
        if not fixed_y:
            y = median_split(y)
        if not fixed_z:
            z = tercile_bin(z)
        counts += _count_codes(x, y, z, w, support, n_cells)

    labels = cell_labels(len(schema.w_columns), schema.letters())
    return Dataset(counts, schema.w_columns, labels), report


# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------


def tabulate(data: Dataset, w_cell: int | None = None) -> np.ndarray:
    """The (S_X, 2, S_Z) count array of the whole sample, or of one W-cell as
    a read-only view of ``data.counts``: ``counts[x-1, y, z-1]`` records have
    codes (x, y, z). Its frequency pmf is ``counts / counts.sum()``; the
    cell's label is ``data.w_labels[w_cell]``."""
    if w_cell is None:
        return data.counts.sum(axis=0)
    counts = data.counts[w_cell]
    if not counts.any():
        raise EmptyCellError(f"covariate cell {data.w_labels[w_cell]!r} has no records")
    return counts
