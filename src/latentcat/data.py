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

``ingest`` reads an extract a block of lines at a time, each with the first
of three parsers that takes it whole (``PARSERS``). A block of one-digit
fields, which is what ``simulate`` writes, is a fixed-width byte table: it
is checked, coded and counted through 10-entry lookup tables built from the
schema's own rules, with no per-field parsing. Any other block is parsed by
``np.loadtxt``, or by ``csv.reader`` where ``loadtxt`` cannot.

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

from .errors import DataError, EmptyCellError, LatentcatError, SchemaError

MAX_W_COLUMNS = 8

__all__ = [
    "Schema",
    "ExclusionReport",
    "Dataset",
    "read_ini",
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


def read_ini(source: str, what: str, error: type[LatentcatError],
             is_text: bool = False) -> configparser.ConfigParser:
    """Parse an INI file at path ``source`` (its text, if ``is_text``) in the
    grammar of every configuration file (see README): ";" starts an inline
    comment and "%" is a plain character. A file that cannot be read or
    parsed is an ``error`` naming ``what`` the file is."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";",), interpolation=None)
    try:
        if is_text:
            parser.read_string(source)
        else:
            with open(source, encoding="utf-8") as handle:
                parser.read_file(handle)
    except OSError as exc:
        raise error(f"cannot read {what}: {exc}") from exc
    except configparser.Error as exc:
        raise error(f"malformed {what}: {exc}") from exc
    return parser


def load_schema(path_or_text) -> Schema:
    """Parse a schema configuration file (INI grammar, see README).

    Accepts a filesystem path, or an already-read text blob (anything
    containing a newline is treated as text).
    """
    text = str(path_or_text)
    parser = read_ini(text, "schema file", SchemaError, is_text="\n" in text)

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
    """Counts of records dropped during ingestion, by reason.

    ``rows_by_parser`` counts the rows each of ingest's parsers read
    (``PARSERS``). It says how the input was read, not what was read, so
    ``to_dict`` and equality leave it out.
    """

    n_read: int
    n_kept: int
    reasons: dict[str, int] = field(default_factory=dict)
    rows_by_parser: dict[str, int] = field(default_factory=dict, compare=False)

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

# The parsers ingest tries on a block, in order; the report counts the
# rows each one read.
PARSERS = ("one_digit", "loadtxt", "csv_reader")


def _blocks(stream):
    """The text of ``stream`` in blocks of whole lines."""
    while text := stream.read(INGEST_BLOCK_CHARS):
        if not text.endswith("\n"):
            text += stream.readline()
        yield text


def _digit_table(text: str, n_fields: int) -> np.ndarray | None:
    """A block of one-digit lines as its (lines, n_fields) table of digits.

    None unless every line of the block is ``n_fields`` ASCII digits joined
    by "," and ended by "\\n" (the input's last line may lack it). Such a
    block is a table of 2·n_fields bytes a line. Read as little-endian byte
    pairs, a line less the pairs of the line "0,0,...,0\\n" is its digits; a
    byte other than a digit in a digit's place, or other than the separator
    in a separator's place, leaves a pair above 9.
    """
    if not text.endswith("\n"):
        text += "\n"  # the last line of the input lacks its line end
    width = 2 * n_fields
    # The first test turns most other blocks away at their first line.
    if text[width - 1:width] != "\n" or len(text) % width or not text.isascii():
        return None
    zeros = np.frombuffer(b"0," * (n_fields - 1) + b"0\n", dtype="<u2")
    digits = np.frombuffer(text.encode("ascii"), dtype="<u2").reshape(-1, n_fields) - zeros
    if digits.max() > 9:
        return None
    return digits


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
    """The data rows a block at a time (see ``ingest``), each with the name
    of the parser that read it (``PARSERS``). A ``one_digit`` block is the
    digit table of all ``n_fields`` fields; any other is fields ``cols`` as
    floats."""
    for text in _blocks(stream):
        digits = _digit_table(text, n_fields)
        if digits is not None:
            yield digits, "one_digit"
            continue
        if '"' in text:  # csv.reader reads the rest, this block's line count at a time
            reader = csv.reader(itertools.chain(io.StringIO(text), stream))
            n_rows = text.count("\n") + 1
            while rows := list(itertools.islice(reader, n_rows)):
                yield _csv_fields(rows, cols), "csv_reader"
            return
        if not text.strip("\r\n"):
            continue  # empty lines only, which loadtxt would warn about
        lines = io.StringIO(text).readlines()
        try:
            fields, parser = np.loadtxt(lines, delimiter=",", usecols=cols, comments=None,
                                        quotechar=None, dtype=float, ndmin=2), "loadtxt"
        except ValueError:
            fields, parser = _csv_fields(csv.reader(lines), cols), "csv_reader"
        yield fields, parser


def _recode(x: np.ndarray, x_recode: dict[int, int]) -> np.ndarray:
    """The recoded codes of raw x values, 0 where ``x_recode`` maps none."""
    x_codes = np.zeros(len(x), dtype=np.int64)  # recode targets start at 1
    for raw, code in x_recode.items():
        x_codes[x == raw] = code
    return x_codes


def _bin_fixed(y: np.ndarray, z: np.ndarray, schema: Schema):
    """y and z coded by the schema's fixed rules; a column whose rule needs
    the whole column (``median``, ``tercile``) is returned as it is."""
    if schema.y_binning != "median":
        y = (y > float(schema.y_binning)).astype(np.int64)
    if schema.z_binning != "tercile":
        z = _apply_cuts(z, schema.z_binning)
    return y, z


def _failures(x_codes: np.ndarray, w: np.ndarray,
              fields: np.ndarray | None) -> dict[str, np.ndarray]:
    """Each exclusion rule's mask of the rows that fail it (see ``ingest``).
    ``fields`` is None when every field is a digit, on which the first two
    rules cannot fire."""
    rules = {}  # in priority order: a row is tallied under the first it fails
    if fields is not None:
        x = fields[:, 0]
        rules["missing_or_nonnumeric"] = ~np.isfinite(fields).all(axis=1)
        rules["noninteger_x"] = ~(np.isfinite(x) & (x == np.floor(x)))
    rules["unmapped_x"] = x_codes == 0
    rules["nonbinary_w"] = ((w != 0) & (w != 1)).any(axis=1)
    return rules


def _digit_tables(schema: Schema) -> tuple[list[np.ndarray], list[tuple[str, int, int]]]:
    """Lookup tables over the digits 0-9 that code and count a block of
    one-digit rows under fixed binning, one table per needed field (x, y, z,
    then the covariates), built from the schema's recode map, binning rules
    and little-endian bit weights, and the exclusion rules of ``_failures``.

    A row's entries sum to its flat (cell, x, y, z) count-table index when
    its digits pass every rule. A digit that fails a rule has, in place of
    its index part, the rule's base; each base exceeds every sum that
    failing only lower rules can reach. So the rows tallied under a rule
    are those whose sum falls in its range: (reason, base, next base).
    """
    digits = np.arange(10)
    s_x, s_z, n_w = schema.s_x, schema.s_z, len(schema.w_columns)
    x_codes = _recode(digits, schema.x_recode)
    y_codes, z_codes = _bin_fixed(digits, digits, schema)
    tables = [(x_codes - 1) * 2 * s_z, y_codes * s_z, z_codes - 1,
              *np.outer(2 ** np.arange(n_w), digits) * (s_x * 2 * s_z)]
    # The rules each digit fails as an x code (beside no covariate) and as a
    # covariate (beside a mapped x code); a y or z digit fails none.
    fails = [_failures(x_codes, np.zeros((10, 0)), None), None, None,
             *[_failures(np.ones(10), digits[:, None], None)] * n_w]
    top = 2**n_w * s_x * 2 * s_z  # the count table's size
    ranges = []
    for reason in reversed(fails[0]):  # lowest priority first, so the first rule wins
        base, failing = top, 0
        for table, rules in zip(tables, fails):
            if rules is not None and rules[reason].any():
                table[rules[reason]] = base
                failing += 1
        top = base * (1 + failing)
        ranges.append((reason, base, top))
    return tables, ranges


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
    schema columns, none of them twice. Blank rows are skipped and not
    counted. Each needed field is ``float(field.strip())``, or NaN when it is
    missing, empty or unparsable. The exclusion rules are column masks, in
    priority order: ``missing_or_nonnumeric`` (any non-finite field),
    ``noninteger_x``, ``unmapped_x`` (an x code absent from the recode map),
    ``nonbinary_w`` (a covariate other than 0/1). Excluded rows are dropped
    listwise and tallied in the returned report under the first rule they
    fail; a rule that never fires has no entry.

    The lines after the header are read in blocks of ``INGEST_BLOCK_CHARS``
    characters, each finished at the end of its last line, and each block
    goes to the first of three parsers (``PARSERS``) that takes it whole;
    the report's ``rows_by_parser`` counts the rows each one read.
    ``_digit_table`` takes a block whose every line is one-digit fields
    joined by "," and ended by "\\n": a fixed-width byte table, checked in
    a few vectorized ops. ``np.loadtxt`` parses any other block without a
    quote character. Where it accepts a field, the value is ``float``'s; it
    rejects more (``1_0``, non-ASCII digits, empty fields, short rows,
    whitespace-only lines), and a block it rejects is parsed again by
    ``csv.reader`` and ``float``. So every block gives the fields the
    ``csv.reader`` path alone would. From the first block with a quote,
    ``csv.reader`` reads the rest of the input, because a quoted field may
    span lines and blocks. Input that ``csv.reader`` refuses (a field over
    its size limit, a bare ``\\r`` inside a line of a stream) is a
    ``DataError``.

    Each block's kept rows are recoded, binned and added to the count table
    at once, so with fixed binning of y and z no record outlives its block;
    a one-digit block is coded, checked and counted through 10-entry lookup
    tables of the schema's own rules (``_digit_tables``) and one bincount.
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
        for column in dict.fromkeys(needed):
            at = [i + 1 for i, h in enumerate(header) if h == column]
            if len(at) > 1:
                raise SchemaError(f"input header names declared column {column!r} "
                                  f"more than once, at columns {at}")
        cols = [header.index(c) for c in needed]
        # float64, exact for these bit sums: integer matmul has no BLAS path
        bit_values = 2.0 ** np.arange(len(schema.w_columns))
        if fixed_y and fixed_z:
            tables, ranges = _digit_tables(schema)
        reasons: dict[str, int] = {}
        rows_by_parser = dict.fromkeys(PARSERS, 0)
        for fields, parser in _field_blocks(stream, len(header), cols):
            rows_by_parser[parser] += len(fields)
            if parser == "one_digit":
                if fixed_y and fixed_z:
                    digits = fields.astype(np.intp)  # indexes without a cast per field
                    flat = tables[0][digits[:, cols[0]]]
                    for table, c in zip(tables[1:], cols[1:]):
                        flat += table[digits[:, c]]
                    tally = np.bincount(flat, minlength=ranges[-1][2])
                    counts += tally[:counts.size].reshape(counts.shape)
                    for reason, base, top in ranges:
                        if n := int(tally[base:top].sum()):
                            reasons[reason] = reasons.get(reason, 0) + n
                    continue
                fields = fields[:, cols].astype(float)
            x, w = fields[:, 0], fields[:, 3:]
            x_codes = _recode(x, schema.x_recode)
            rules = _failures(x_codes, w, None if parser == "one_digit" else fields)
            first = np.select(list(rules.values()), range(len(rules)),
                              default=len(rules))
            for reason, n in zip(rules, np.bincount(first, minlength=len(rules))):
                if n:
                    reasons[reason] = reasons.get(reason, 0) + int(n)
            keep = first == len(rules)
            rows = (x_codes[keep], *_bin_fixed(fields[keep, 1], fields[keep, 2], schema),
                    (w[keep] @ bit_values).astype(np.int64))
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

    n_read = sum(rows_by_parser.values())
    report = ExclusionReport(n_read=n_read, n_kept=n_read - sum(reasons.values()),
                             reasons=reasons, rows_by_parser=rows_by_parser)
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
