"""Property tests: every statistic reads the (cell, x, y, z) count table.

The references below count records with per-cell masks, the way the
statistics were computed before the count table existed. Ingest's table
and exclusion tallies do not depend on the order of the rows, and equal
those of the row-by-row loop that ingest's column masks replaced.
"""

import csv
import io
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from latentcat import data as data_module
from latentcat.data import (
    Dataset,
    ExclusionReport,
    Schema,
    _apply_cuts,
    cell_labels,
    ingest,
    median_split,
    tabulate,
    tercile_bin,
)
from latentcat.errors import ConfigurationError, DataError, SchemaError
from latentcat.mle import loglik
from latentcat.ordered import _cell_design, reported_conditional
from latentcat.spectral import MisclassificationModel, _state_terms

SETTINGS = settings(max_examples=60, deadline=None)


@st.composite
def datasets(draw):
    n_cols = draw(st.integers(0, 2))
    s_x = draw(st.integers(2, 4))
    s_z = draw(st.integers(2, 4))
    n = draw(st.integers(1, 40))
    codes = st.tuples(
        st.integers(1, s_x), st.integers(0, 1), st.integers(1, s_z),
        st.integers(0, 2**n_cols - 1),
    )
    rows = np.asarray(draw(st.lists(codes, min_size=n, max_size=n)))
    order = np.asarray(draw(st.permutations(range(n))))
    return rows, order, (s_x, 2, s_z), n_cols


def make(rows, support, n_cols):
    return Dataset.from_records(
        x=rows[:, 0], y=rows[:, 1], z=rows[:, 2], w=rows[:, 3], support=support,
        w_columns=tuple(f"w{k + 1}" for k in range(n_cols)),
        w_labels=tuple(str(c) for c in range(2**n_cols)),
    )


def mask_table(rows, support, cell):
    mask = np.ones(len(rows), dtype=bool) if cell is None else rows[:, 3] == cell
    s_x, _, s_z = support
    counts = np.zeros((s_x, 2, s_z), dtype=np.int64)
    for x, y, z in rows[mask, :3]:
        counts[x - 1, y, z - 1] += 1
    return counts


def mask_x_hist(rows, support, n_cells):
    return np.asarray([
        np.bincount(rows[rows[:, 3] == c, 0] - 1, minlength=support[0])
        for c in range(n_cells)
    ])


@SETTINGS
@given(datasets())
def test_tables_match_record_masks_and_ignore_order(case):
    rows, order, support, n_cols = case
    data = make(rows, support, n_cols)
    shuffled = make(rows[order], support, n_cols)
    assert np.array_equal(data.counts, shuffled.counts)
    sizes = [int((rows[:, 3] == c).sum()) for c in range(data.n_w_cells)]
    assert data.cell_counts().tolist() == sizes
    assert shuffled.cell_counts().tolist() == sizes
    for cell in (None, *range(data.n_w_cells)):
        if cell is not None and sizes[cell] == 0:
            with pytest.raises(DataError):
                tabulate(data, cell)
            continue
        expected = mask_table(rows, support, cell)
        for d in (data, shuffled):
            table = tabulate(d, cell)
            assert table.dtype == np.int64
            assert np.array_equal(table, expected)


@SETTINGS
@given(datasets())
def test_outcome_conditionals_match_record_masks(case):
    rows, order, support, n_cols = case
    data = make(rows, support, n_cols)
    shuffled = make(rows[order], support, n_cols)
    hist = mask_x_hist(rows, support, data.n_w_cells)
    populated = hist.sum(axis=1) > 0
    bits = [[1.0, *((c >> k) & 1 for k in range(n_cols))] for c in range(data.n_w_cells)]
    for d in (data, shuffled):
        if support[0] < 3:
            with pytest.raises(ConfigurationError):
                _cell_design(d)
            continue
        q, counts, _ = _cell_design(d)
        assert np.array_equal(q, np.asarray(bits)[populated])
        assert np.array_equal(counts, hist[populated].astype(float))
    if not populated.all():
        return
    for d in (data, shuffled):
        lc = reported_conditional(d)
        for c in range(data.n_w_cells):
            assert np.array_equal(lc.probs[c], hist[c] / hist[c].sum())
            assert lc.weights[c] == hist[c].sum() / data.n
            assert np.array_equal(lc.q[c], bits[c])


def random_model(rng, s_x, s_z):
    return MisclassificationModel(
        m_x_given_xstar=rng.dirichlet(np.ones(s_x), size=s_x).T,
        f_y_given_xstar=rng.uniform(0.05, 0.95, size=s_x),
        m_z_given_xstar=rng.dirichlet(np.ones(s_z), size=s_x).T,
        f_xstar=rng.dirichlet(np.ones(s_x)),
    )


@SETTINGS
@given(st.integers(0, 2**32 - 1), st.integers(2, 4), st.integers(2, 4))
def test_loglik_invariant_to_latent_relabeling(seed, s_x, s_z):
    rng = np.random.default_rng(seed)
    model = random_model(rng, s_x, s_z)
    perm = rng.permutation(s_x)
    relabeled = MisclassificationModel(
        m_x_given_xstar=model.m_x_given_xstar[:, perm],
        f_y_given_xstar=model.f_y_given_xstar[perm],
        m_z_given_xstar=model.m_z_given_xstar[:, perm],
        f_xstar=model.f_xstar[perm],
    )
    counts = rng.integers(0, 50, size=(s_x, 2, s_z))
    assert loglik(relabeled, counts) == pytest.approx(loglik(model, counts), rel=1e-12)


@SETTINGS
@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(2, 4), st.integers(2, 4))
def test_batched_joint_pmf_equals_items(seed, batch, s_x, s_z):
    rng = np.random.default_rng(seed)
    models = [random_model(rng, s_x, s_z) for _ in range(batch)]
    batched = _state_terms(np.stack([m.pack() for m in models], axis=1), s_x, s_z)
    assert batched.shape == (s_x, 2, s_z, s_x, batch)
    for i, m in enumerate(models):
        alone = _state_terms(m.pack()[:, None], s_x, s_z)[..., 0]
        assert np.array_equal(batched[..., i], alone)
        f_y = np.stack([1.0 - m.f_y_given_xstar, m.f_y_given_xstar])
        expected = np.einsum("xs,ys,zs,s->xyzs", m.m_x_given_xstar, f_y,
                             m.m_z_given_xstar, m.f_xstar)
        np.testing.assert_allclose(alone, expected, rtol=1e-12, atol=0)


SCHEMA = Schema(
    x_column="ls", y_column="neuro", z_column="ghq", w_columns=("female", "married"),
    x_recode={1: 1, 2: 1, 3: 2, 4: 2, 5: 2, 6: 3, 7: 3},
    z_binning="tercile", y_binning="median",
)


@st.composite
def extracts(draw):
    """CSV rows with valid and excludable fields, plus a row permutation."""
    raw_x = st.sampled_from(["1", "2", "3", "4", "5", "6", "7", "9", "4.5", "", "x"])
    value = st.one_of(
        st.integers(-3, 3).map(str), st.floats(-2, 2).map(repr),
        st.sampled_from(["", "nan"]),
    )
    bit = st.sampled_from(["0", "1", "1.0", "2", ""])
    rows = draw(st.lists(st.tuples(raw_x, value, value, bit, bit), min_size=1,
                         max_size=40))
    order = draw(st.permutations(range(len(rows))))
    return rows, order


def ingest_rows(rows):
    text = "ls,neuro,ghq,female,married\n" + "".join(",".join(r) + "\n" for r in rows)
    try:
        data, report = ingest(io.StringIO(text), SCHEMA)
    except DataError as exc:
        return str(exc), None
    return data.counts, report.to_dict()


@SETTINGS
@given(extracts())
def test_ingest_ignores_row_order(case):
    rows, order = case
    counts, tallies = ingest_rows(rows)
    shuffled_counts, shuffled_tallies = ingest_rows([rows[i] for i in order])
    assert tallies == shuffled_tallies
    if tallies is None:  # every row excluded: the same refusal either way
        assert counts == shuffled_counts
    else:
        assert np.array_equal(counts, shuffled_counts)


# ---------------------------------------------------------------------------
# ingest's column masks against the row loop they replaced
# ---------------------------------------------------------------------------


def _parse_number(token: str) -> float:
    token = token.strip()
    if not token:
        raise ValueError("empty field")
    value = float(token)
    if not np.isfinite(value):
        raise ValueError("non-finite field")
    return value


def row_loop_ingest(source, schema: Schema) -> tuple[Dataset, ExclusionReport]:
    """Read a delimited extract, apply the schema, and drop unusable rows.

    ``source`` is a path or an open text stream with a header row naming all
    schema columns. Rows with missing/unparsable fields, x codes absent from
    the recode map, or non-binary covariate values are excluded (listwise)
    and tallied by reason in the returned report.
    """
    if hasattr(source, "read"):
        stream = source
        close = False
    else:
        try:
            stream = open(source, encoding="utf-8", newline="")
        except OSError as exc:
            raise DataError(f"cannot read input: {exc}") from exc
        close = True
    try:
        reader = csv.reader(stream)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError("input has no header row") from None
        header = [h.strip() for h in header]
        needed = [schema.x_column, schema.y_column, schema.z_column, *schema.w_columns]
        missing = [c for c in needed if c not in header]
        if missing:
            raise SchemaError(f"input is missing declared columns: {missing}")
        idx = {c: header.index(c) for c in needed}

        x_raw: list[int] = []
        y_raw: list[float] = []
        z_raw: list[float] = []
        w_cells: list[int] = []
        reasons: dict[str, int] = {}
        n_read = 0

        def drop(reason: str) -> None:
            reasons[reason] = reasons.get(reason, 0) + 1

        for row in reader:
            if not row or all(not f.strip() for f in row):
                continue
            n_read += 1
            try:
                xv = _parse_number(row[idx[schema.x_column]])
                yv = _parse_number(row[idx[schema.y_column]])
                zv = _parse_number(row[idx[schema.z_column]])
                wv = [_parse_number(row[idx[c]]) for c in schema.w_columns]
            except (ValueError, IndexError):
                drop("missing_or_nonnumeric")
                continue
            if xv != int(xv):
                drop("noninteger_x")
                continue
            if int(xv) not in schema.x_recode:
                drop("unmapped_x")
                continue
            bits = []
            ok = True
            for v in wv:
                if v not in (0.0, 1.0):
                    ok = False
                    break
                bits.append(int(v))
            if not ok:
                drop("nonbinary_w")
                continue
            x_raw.append(schema.x_recode[int(xv)])
            y_raw.append(yv)
            z_raw.append(zv)
            w_cells.append(sum(b << k for k, b in enumerate(bits)))
    finally:
        if close:
            stream.close()

    report = ExclusionReport(n_read=n_read, n_kept=len(x_raw), reasons=reasons)
    if not x_raw:
        raise DataError(
            f"no usable records after exclusions "
            f"(read {n_read}, dropped {report.n_excluded})"
        )

    x = np.asarray(x_raw, dtype=np.int64)
    w = np.asarray(w_cells, dtype=np.int64)
    y_vals = np.asarray(y_raw, dtype=float)
    z_vals = np.asarray(z_raw, dtype=float)
    # Free the row buffers first, so that counting does not add to the peak.
    del x_raw, y_raw, z_raw, w_cells
    if schema.y_binning == "median":
        y_codes = median_split(y_vals)
    else:
        y_codes = (y_vals > float(schema.y_binning)).astype(np.int64)
    if schema.z_binning == "tercile":
        z_codes = tercile_bin(z_vals)
    else:
        z_codes = _apply_cuts(z_vals, schema.z_binning)

    labels = cell_labels(len(schema.w_columns), schema.letters())
    data = Dataset.from_records(
        x, y_codes, z_codes, w,
        support=(schema.s_x, 2, schema.s_z),
        w_columns=schema.w_columns,
        w_labels=labels,
    )
    return data, report


INGEST_SCHEMAS = (
    SCHEMA,
    Schema(x_column="ls", y_column="neuro", z_column="ghq", w_columns=(),
           x_recode={1: 1, 3: 2, 5: 2}, z_binning=(0.5,), y_binning=0.0),
    Schema(x_column="ls", y_column="neuro", z_column="ghq",
           w_columns=("female", "married", "degree"), x_recode={0: 1, 2: 2},
           z_binning=(-1.0, 1.0), y_binning="median"),
)
# Dirty and unparsable fields: padded, quoted, non-finite, overflowing,
# whitespace that str.strip removes but float alone rejects ("\x1c"), digits
# that float reads but np.loadtxt does not ("1_0", "\u0663"), and a line break,
# which csv.writer quotes into a field that spans lines and chunks.
DIRTY = st.one_of(
    st.sampled_from([
        "2", "9", "-1", "1.0", "-0.0", "4.5", "1e400", " 4 ", "1_0", "", "  ",
        "nan", "inf", "-inf", "NaN", "x", "\x1c1", "\u00a01", "1,5", '"3"', "0x1",
        "\u0663", "1\n2",
    ]),
    st.floats(-3, 3).map(repr),
)
BLANK = st.lists(st.sampled_from(["", " ", "\t"]), max_size=3)


def rarely(draw):
    return draw(st.sampled_from([False] * 9 + [True]))


@st.composite
def dirty_extracts(draw):
    """CSV text over one of INGEST_SCHEMAS, with a block size to read it in."""
    schema = draw(st.sampled_from(INGEST_SCHEMAS))
    # Mostly usable fields, with non-integer or unmapped x codes and
    # non-binary covariates among them.
    codes = [str(k) for k in schema.x_recode] + ["0", "8", "2.5"]
    bits = st.sampled_from(["0", "1", "0", "1", "2"])
    valid = {schema.x_column: st.sampled_from(codes),
             **dict.fromkeys(schema.w_columns, bits)}
    names = [schema.x_column, schema.y_column, schema.z_column, *schema.w_columns]
    names = draw(st.permutations(names + (["id"] if rarely(draw) else [])))
    if rarely(draw):  # a declared column is absent
        names = names[1:]
    fields = [st.sampled_from([valid.get(n, st.floats(-3, 3).map(repr))] * 9 + [DIRTY])
              .flatmap(lambda field: field) for n in names]
    row = st.tuples(*fields).map(list).flatmap(lambda r: st.sampled_from(
        [r] * 6 + [r[:-1], r[:-2], r + ["0"], r + ["", "x"]]))
    rows = draw(st.lists(st.one_of(row, row, row, BLANK), min_size=5, max_size=40))
    lines = []
    if not rarely(draw):  # else the input has no header row
        lines = [[f" {n}" if draw(st.booleans()) else n for n in names], *rows]
    end = draw(st.sampled_from(["\r\n", "\n"]))
    quoting = draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL, None]))
    if quoting is None:  # plain text: fields joined by commas, never quoted
        text = "".join(",".join(line) + end for line in lines)
    else:
        out = io.StringIO()
        csv.writer(out, quoting=quoting, lineterminator=end).writerows(lines)
        text = out.getvalue()
    return text, schema, draw(BLOCK_CHARS)


# Block sizes to read an extract in: a few characters, so that lines
# straddle blocks and a block is one line, or the real size.
BLOCK_CHARS = st.sampled_from([1, 5, 16, 64, data_module.INGEST_BLOCK_CHARS])


def ingest_outcome(read, source, schema):
    """The count table, labels and report of one ingest, or its error."""
    try:
        data, report = read(source, schema)
    except Exception as exc:  # noqa: BLE001 - the error is part of the outcome
        return type(exc), str(exc)
    return data.counts.tolist(), data.w_labels, report


def test_ingest_equals_the_row_loop():
    loadtxt = np.loadtxt
    parsed = []  # per example, the blocks that np.loadtxt accepted
    rejected = 0

    def counted_loadtxt(*args, **kwargs):
        nonlocal rejected
        try:
            fields = loadtxt(*args, **kwargs)
        except ValueError:
            rejected += 1
            raise
        parsed[-1] += 1
        return fields

    @settings(max_examples=300, deadline=None)
    @given(dirty_extracts())
    def agrees(case):
        text, schema, block_chars = case
        parsed.append(0)
        with mock.patch.object(data_module, "INGEST_BLOCK_CHARS", block_chars):
            got = ingest_outcome(ingest, io.StringIO(text), schema)
        assert got == ingest_outcome(row_loop_ingest, io.StringIO(text), schema)

    with mock.patch.object(np, "loadtxt", counted_loadtxt):
        agrees()
    # Both of ingest's text parsers must carry a real share of the examples.
    assert sum(n > 0 for n in parsed) >= len(parsed) / 4
    assert rejected >= len(parsed) / 4


def digits(values):
    """Integer fields of 1 to 19 digits, some with leading zeros."""
    return st.tuples(values, st.sampled_from([0] * 6 + [2, 5, 19])).map(
        lambda vz: str(vz[0]).zfill(vz[1]))


@st.composite
def integer_extracts(draw):
    """An all-integer CSV over one of INGEST_SCHEMAS: (text, BOM, schema,
    block size). Fields run to 19 digits, past 2**53 and past int64; a
    blank line and a short or long row are rare."""
    schema = draw(st.sampled_from(INGEST_SCHEMAS))
    big = st.integers(2**53 - 2, 10**19 - 1)
    small = st.integers(0, 3)
    x_values = st.sampled_from([*schema.x_recode] * 3 + [0, 8, 2**53 + 1])
    values = {schema.x_column: x_values,
              **dict.fromkeys(schema.w_columns, st.sampled_from([0, 1, 0, 1, 2]))}
    names = [schema.x_column, schema.y_column, schema.z_column, *schema.w_columns]
    names = draw(st.permutations(names + (["id"] if rarely(draw) else [])))
    fields = [digits(values.get(n, st.sampled_from([small] * 9 + [big])
                                .flatmap(lambda v: v))) for n in names]
    row = st.tuples(*fields).map(list)
    odd = st.one_of(st.just([""]), row.map(lambda r: r[:-1]), row.map(lambda r: r + ["0"]))
    rows = draw(st.lists(st.sampled_from([row] * 29 + [odd]).flatmap(lambda r: r),
                         min_size=1, max_size=30))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    text = end.join(",".join(line) for line in [names, *rows])
    if draw(st.booleans()):
        text += end
    return text, rarely(draw), schema, draw(BLOCK_CHARS)


def test_integer_ingest_equals_the_row_loop(tmp_path):
    loadtxt = np.loadtxt
    parsed = []  # per example, the blocks that np.loadtxt read
    path = tmp_path / "extract.csv"

    def counted_loadtxt(*args, **kwargs):
        fields = loadtxt(*args, **kwargs)
        parsed[-1] += 1
        return fields

    no_w = INGEST_SCHEMAS[1]  # ls, neuro, ghq; fixed binning

    @settings(max_examples=200, deadline=None)
    @given(integer_extracts())
    # A short and a long row whose field counts add up; a field past int64,
    # one of 19 digits that fits, and one just past 2**53.
    @example(("ls,neuro,ghq\n1,1,1\n3,0\n5,1,1,7\n1,0,0\n", False, no_w, 1 << 16))
    @example(("ls,neuro,ghq\r\n1,9999999999999999999,0\r\n"
              "3,0000000000000000001,9007199254740993", True, no_w, 1 << 16))
    def agrees(case):
        text, bom, schema, block_chars = case
        path.write_bytes(b"\xef\xbb\xbf" * bom + text.encode("ascii"))
        parsed.append(0)
        expected = ingest_outcome(row_loop_ingest, io.StringIO(text), schema)
        with mock.patch.object(data_module, "INGEST_BLOCK_CHARS", block_chars):
            assert ingest_outcome(ingest, str(path), schema) == expected
            assert ingest_outcome(ingest, io.StringIO(text), schema) == expected

    with mock.patch.object(np, "loadtxt", counted_loadtxt):
        agrees()
    assert sum(n > 0 for n in parsed) >= len(parsed) / 4


# The schema simulate writes beside its CSV: a fixed y threshold and z cuts
# at digits, which a z digit meets.
SIDECAR = Schema(x_column="x", y_column="y", z_column="z", w_columns=("w1", "w2", "w3"),
                 x_recode={1: 1, 2: 2, 3: 3}, z_binning=(1.0, 2.0), y_binning=0.5)
DIGIT_SCHEMAS = (SIDECAR, *INGEST_SCHEMAS)


@st.composite
def digit_extracts(draw):
    """A CSV of one-digit fields over one of DIGIT_SCHEMAS: (text, line end
    of the file, BOM, schema, block size). x codes include unmapped digits
    and covariates non-binary ones; a two-digit field is rare, and the last
    line may lack its line end."""
    schema = draw(st.sampled_from(DIGIT_SCHEMAS))
    mapped = [k for k in schema.x_recode if 0 <= k <= 9]
    values = {schema.x_column: st.sampled_from(mapped * 4 + [8, 9]),
              **dict.fromkeys(schema.w_columns, st.sampled_from([0, 1] * 6 + [2, 9]))}
    names = [schema.x_column, schema.y_column, schema.z_column, *schema.w_columns]
    names = draw(st.permutations(names + (["id"] if rarely(draw) else [])))
    row = st.tuples(*[values.get(n, st.integers(0, 9)) for n in names]).map(list)
    wide = row.map(lambda r: [10 + r[0], *r[1:]])
    rows = draw(st.lists(st.sampled_from([row] * 29 + [wide]).flatmap(lambda r: r),
                         min_size=1, max_size=40))
    text = "\n".join(",".join(map(str, line)) for line in [names, *rows])
    if not rarely(draw):
        text += "\n"
    return (text, draw(st.sampled_from(["\n", "\r\n"])), draw(st.booleans()), schema,
            draw(BLOCK_CHARS))


def test_one_digit_ingest_equals_the_row_loop(tmp_path):
    digit_table = data_module._digit_table
    parsed = []  # per example, the blocks that the one-digit parser read
    path = tmp_path / "extract.csv"

    def counted_digit_table(*args):
        digits = digit_table(*args)
        parsed[-1] += digits is not None
        return digits

    header = "x,y,z,w1,w2,w3\n"

    @settings(max_examples=200, deadline=None)
    @given(digit_extracts())
    # A one-digit block, then a block with a two-digit field.
    @example((header + "1,0,1,0,1,1\n2,1,2,1,0,0\n3,0,12,1,1,0\n", "\n", False,
              SIDECAR, 16))
    # The last line lacks its line end.
    @example((header + "1,0,1,0,1,1\n2,1,2,1,0,0", "\r\n", True, SIDECAR, 1 << 16))
    # Unmapped x codes and non-binary covariates, one row failing both, and
    # z digits at the cuts.
    @example((header + "9,0,1,2,0,1\n1,1,2,0,3,0\n0,1,1,0,0,0\n1,0,1,0,0,0\n"
              "2,1,2,1,0,1\n3,1,3,1,1,1\n", "\n", False, SIDECAR, 1 << 16))
    # Median and tercile rules, which hold the digits as floats.
    @example(("ls,neuro,ghq,female,married\n1,4,2,0,1\n6,1,7,1,1\n9,3,3,0,2\n"
              "3,0,5,1,0\n7,8,9,0,0\n", "\r\n", False, SCHEMA, 16))
    def agrees(case):
        text, end, bom, schema, block_chars = case
        path.write_bytes(b"\xef\xbb\xbf" * bom + text.replace("\n", end).encode("ascii"))
        parsed.append(0)
        expected = ingest_outcome(row_loop_ingest, io.StringIO(text), schema)
        with mock.patch.object(data_module, "INGEST_BLOCK_CHARS", block_chars):
            assert ingest_outcome(ingest, str(path), schema) == expected
            assert ingest_outcome(ingest, io.StringIO(text), schema) == expected

    with mock.patch.object(data_module, "_digit_table", counted_digit_table):
        agrees()
    assert sum(n > 0 for n in parsed) >= len(parsed) / 4


@settings(max_examples=200, deadline=None)
@given(
    cuts=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=6, unique=True).map(sorted),
    values=st.lists(st.floats(-1e3, 1e3) | st.sampled_from([0.0, -0.0, 1e-300]),
                    max_size=40),
)
def test_apply_cuts_equals_one_increment_per_cut(cuts, values):
    # The one-pass binning against the loop it replaced, on finite values
    # (ingest bins kept rows only) that include every cut, so ties are met.
    values = np.array(values + cuts + [np.nextafter(c, np.inf) for c in cuts])
    expected = np.ones(values.size, dtype=np.int64)
    for cut in cuts:
        expected[values > cut] += 1
    got = _apply_cuts(values, tuple(cuts))
    assert got.dtype == np.int64
    assert np.array_equal(got, expected)
