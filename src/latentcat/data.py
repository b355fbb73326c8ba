"""Survey-extract ingestion, discretization, and contingency tables.

The observable record is a 4-tuple of discrete codes: a reported outcome
``x`` in {1..S_X}, a binary auxiliary indicator ``y`` in {0,1}, a second
discretized auxiliary measure ``z`` in {1..S_Z}, and a covariate-cell index
``w`` packing a short vector of binary covariates. Records exist only while
they are read: ``ingest`` (or ``Dataset.from_records``) counts them once into
a (cell, x, y, z) table, and a ``Dataset`` is that table and nothing else.
Everything downstream (tests, identification, estimation, bootstrap
redraws) reads it.

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
import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, EmptyCellError, SchemaError

MAX_W_COLUMNS = 8

__all__ = [
    "Schema",
    "ExclusionReport",
    "Dataset",
    "ContingencyTable",
    "JointPmf",
    "load_schema",
    "ingest",
    "median_split",
    "tercile_bin",
    "tabulate",
    "frequency_pmf",
    "nearest_rank",
    "cell_rows",
    "w_cell_label",
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
            if len(cuts) < 1 or any(a >= b for a, b in zip(cuts, cuts[1:])):
                raise SchemaError("explicit z cuts must be strictly increasing")
        elif self.z_binning != "tercile":
            raise SchemaError(f"unknown z_binning {self.z_binning!r}")
        if isinstance(self.y_binning, str) and self.y_binning != "median":
            raise SchemaError(f"unknown y_binning {self.y_binning!r}")
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

    def letters(self) -> tuple[str, ...]:
        if self.w_letters is not None:
            return self.w_letters
        initials = tuple(c[0].upper() for c in self.w_columns)
        if len(set(initials)) == len(initials):
            return initials
        # Colliding initials would merge cell labels; fall back to positions.
        return tuple(chr(ord("A") + k) for k in range(len(self.w_columns)))


def load_schema(path_or_text) -> Schema:
    """Parse a schema configuration file (INI grammar, see README).

    Accepts a filesystem path, or an already-read text blob (anything
    containing a newline is treated as text).
    """
    parser = configparser.ConfigParser()
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

    z_binning: str | tuple[float, ...] = "tercile"
    y_binning: str | float = "median"
    if parser.has_section("binning"):
        binning = parser["binning"]
        if "z" in binning:
            spec = binning["z"].split()
            if spec[0] == "tercile":
                z_binning = "tercile"
            elif spec[0] == "cuts":
                z_binning = tuple(float(v) for v in spec[1:])
            else:
                raise SchemaError(f"unknown z binning rule {binning['z']!r}")
        if "y" in binning:
            spec = binning["y"].split()
            if spec[0] == "median":
                y_binning = "median"
            elif spec[0] == "above":
                y_binning = float(spec[1])
            else:
                raise SchemaError(f"unknown y binning rule {binning['y']!r}")

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


def w_cell_label(cell: int, letters: tuple[str, ...]) -> str:
    """Display label for a covariate cell: letters of the set bits, '0' if none."""
    marks = [letters[k] for k in range(len(letters)) if (cell >> k) & 1]
    return "".join(marks) if marks else "0"


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
        s_x, s_y, s_z = support
        if s_y != 2:
            raise DataError("the auxiliary indicator must be binary")
        if not (x.shape == y.shape == z.shape == w.shape) or x.ndim != 1:
            raise DataError("code arrays differ in length")
        n_cells = 2 ** len(w_columns)
        for arr, lo, hi, name in (
            (x, 1, s_x, "x"), (y, 0, 1, "y"), (z, 1, s_z, "z"), (w, 0, n_cells - 1, "w"),
        ):
            if arr.size and (arr.min() < lo or arr.max() > hi):
                raise DataError(f"{name} codes outside declared support [{lo},{hi}]")
        flat = ((w * s_x + x - 1) * 2 + y) * s_z + z - 1
        counts = np.bincount(flat, minlength=n_cells * s_x * 2 * s_z)
        return cls(counts.reshape(n_cells, s_x, 2, s_z), w_columns, w_labels)

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
    codes = np.ones(values.size, dtype=np.int64)
    for cut in cuts:
        codes[values > cut] += 1
    return codes


# ---------------------------------------------------------------------------
# Ingestion
# ---------------------------------------------------------------------------


INGEST_CHUNK_ROWS = 8192


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


def _field_chunks(lines, cols: list[int]):
    """Fields ``cols`` of the data rows, a chunk at a time (see ``ingest``)."""
    while chunk := list(itertools.islice(lines, INGEST_CHUNK_ROWS)):
        text = "".join(chunk)
        if '"' in text:
            reader = csv.reader(itertools.chain(chunk, lines))
            while rows := list(itertools.islice(reader, INGEST_CHUNK_ROWS)):
                yield _csv_fields(rows, cols)
            return
        if not text.strip("\r\n"):
            continue  # empty lines only, which loadtxt would warn about
        try:
            fields = np.loadtxt(chunk, delimiter=",", usecols=cols, comments=None,
                                quotechar=None, dtype=float, ndmin=2)
        except ValueError:
            fields = _csv_fields(csv.reader(chunk), cols)
        yield fields


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

    ``source`` is a path (UTF-8, a leading BOM ignored) or an open text
    stream with a header row naming all schema columns. Blank rows are
    skipped and not counted. Each needed field is ``float(field.strip())``,
    or NaN when it is missing, empty or unparsable. The exclusion rules are
    column masks, in priority order: ``missing_or_nonnumeric`` (any
    non-finite field), ``noninteger_x``, ``unmapped_x`` (an x code absent
    from the recode map), ``nonbinary_w`` (a covariate other than 0/1).
    Excluded rows are dropped listwise and tallied in the returned report
    under the first rule they fail; a rule that never fires has no entry.

    The lines after the header are read in chunks of ``INGEST_CHUNK_ROWS``.
    ``np.loadtxt`` parses a chunk without a quote character. Where it accepts
    a field, the value is ``float``'s; it rejects more (``1_0``, non-ASCII
    digits, empty fields, short rows, whitespace-only lines), and a chunk it
    rejects is parsed again by ``csv.reader`` and ``float``. Both skip empty
    lines, so every chunk gives the fields the ``csv.reader`` path alone
    would. From the first chunk with a quote, ``csv.reader`` reads the rest
    of the input, because a quoted field may span lines and chunks.
    """
    if hasattr(source, "read"):
        stream = source
        close = False
    else:
        try:
            stream = open(source, encoding="utf-8-sig", newline="")
        except OSError as exc:
            raise DataError(f"cannot read input: {exc}") from exc
        close = True
    try:
        lines = iter(stream)
        try:
            header = next(csv.reader(lines))
        except StopIteration:
            raise DataError("input has no header row") from None
        header = [h.strip() for h in header]
        needed = [schema.x_column, schema.y_column, schema.z_column, *schema.w_columns]
        missing = [c for c in needed if c not in header]
        if missing:
            raise SchemaError(f"input is missing declared columns: {missing}")
        cols = [header.index(c) for c in needed]
        bit_values = 1 << np.arange(len(schema.w_columns))
        reasons: dict[str, int] = {}
        kept: list[tuple[np.ndarray, ...]] = []
        n_read = 0
        for fields in _field_chunks(lines, cols):
            n_read += len(fields)
            x, w = fields[:, 0], fields[:, 3:]
            integral = np.isfinite(x) & (x == np.floor(x))
            x_codes = np.zeros(len(fields), dtype=np.int64)  # recode targets start at 1
            for raw, code in schema.x_recode.items():
                x_codes[x == raw] = code
            rules = {  # in priority order: a row is tallied under the first it fails
                "missing_or_nonnumeric": ~np.isfinite(fields).all(axis=1),
                "noninteger_x": ~integral,
                "unmapped_x": x_codes == 0,
                "nonbinary_w": ((w != 0) & (w != 1)).any(axis=1),
            }
            first = np.select(list(rules.values()), range(len(rules)),
                              default=len(rules))
            for reason, n in zip(rules, np.bincount(first, minlength=len(rules))):
                if n:
                    reasons[reason] = reasons.get(reason, 0) + int(n)
            keep = first == len(rules)
            kept.append((x_codes[keep], fields[keep, 1], fields[keep, 2],
                         w[keep].astype(np.int64) @ bit_values))
    except UnicodeDecodeError as exc:
        raise _not_utf8(source, exc) from None
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

    x, y_vals, z_vals, w = (np.concatenate(c) for c in zip(*kept))
    if schema.y_binning == "median":
        y_codes = median_split(y_vals)
    else:
        y_codes = (y_vals > float(schema.y_binning)).astype(np.int64)
    if schema.z_binning == "tercile":
        z_codes = tercile_bin(z_vals)
    else:
        z_codes = _apply_cuts(z_vals, schema.z_binning)

    letters = schema.letters()
    labels = tuple(
        w_cell_label(c, letters) for c in range(schema.n_w_cells)
    )
    data = Dataset.from_records(
        x, y_codes, z_codes, w,
        support=(schema.s_x, 2, schema.s_z),
        w_columns=schema.w_columns,
        w_labels=labels,
    )
    return data, report


# ---------------------------------------------------------------------------
# Tables and pmfs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ContingencyTable:
    """Integer counts over the full (x, y, z) grid of one (sub)sample.

    ``counts[x-1, y, z-1]`` is the number of records with those codes; zero
    cells are present, and the entries sum to ``n``.
    """

    counts: np.ndarray
    n: int
    w_cell: str | None = None

    def __post_init__(self):
        arr = np.ascontiguousarray(self.counts, dtype=np.int64)
        arr.setflags(write=False)
        object.__setattr__(self, "counts", arr)
        if arr.ndim != 3:
            raise DataError("counts must be a 3-d (x, y, z) array")
        if (arr < 0).any():
            raise DataError("negative cell count")
        if int(arr.sum()) != self.n:
            raise DataError("cell counts do not sum to n")

    @property
    def support(self) -> tuple[int, int, int]:
        return tuple(self.counts.shape)  # type: ignore[return-value]


@dataclass(frozen=True)
class JointPmf:
    """Joint probability mass over the (x, y, z) grid; sums to 1."""

    probs: np.ndarray
    support: tuple[int, int, int]

    def __post_init__(self):
        arr = np.ascontiguousarray(self.probs, dtype=float)
        arr.setflags(write=False)
        object.__setattr__(self, "probs", arr)
        if arr.shape != tuple(self.support):
            raise DataError("pmf shape does not match declared support")
        if (arr < 0).any():
            raise DataError("negative probability entry")
        if abs(float(arr.sum()) - 1.0) > 1e-12:
            raise DataError(f"pmf sums to {arr.sum()!r}, not 1")


def tabulate(data: Dataset, w_cell: int | None = None) -> ContingencyTable:
    """The (x, y, z) counts of the whole sample or of one W-cell."""
    if w_cell is None:
        return ContingencyTable(counts=data.counts.sum(axis=0), n=data.n)
    counts = data.counts[w_cell]
    label = data.w_labels[w_cell]
    n = int(counts.sum())
    if n == 0:
        raise EmptyCellError(f"covariate cell {label!r} has no records")
    return ContingencyTable(counts=counts, n=n, w_cell=label)


def frequency_pmf(table: ContingencyTable) -> JointPmf:
    """Cell counts divided by n: the maximum-likelihood pmf estimate."""
    if table.n <= 0:
        raise DataError("cannot normalize an empty table")
    return JointPmf(probs=table.counts / table.n, support=table.support)
