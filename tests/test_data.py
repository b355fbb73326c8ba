import io
import tracemalloc

import numpy as np
import pytest

from latentcat.data import (
    Dataset,
    Schema,
    cell_labels,
    ingest,
    load_schema,
    median_split,
    tabulate,
    tercile_bin,
)
from latentcat.errors import DataError, SchemaError

from conftest import ingest_text


def records_of(data):
    """One (x, y, z, w) code per record, expanded from the count table."""
    flat = np.repeat(np.arange(data.counts.size), data.counts.ravel())
    w, x, y, z = np.unravel_index(flat, data.counts.shape)
    return x + 1, y, z + 1, w


def make_csv(rows, header="ls,neuro,ghq,female,married"):
    return header + "\n" + "\n".join(",".join(str(v) for v in r) for r in rows) + "\n"


# ---------------------------------------------------------------------------
# ingest
# ---------------------------------------------------------------------------


def test_ingest_applies_recode_groups(basic_schema):
    text = make_csv([(6, 1.0, 10, 0, 0), (7, 2.0, 20, 0, 0), (2, 3.0, 30, 0, 0)])
    data, report = ingest_text(text, basic_schema)
    # x codes 3, 3, 1 (one record coded 1, none 2, two 3)
    assert data.counts.sum(axis=(0, 2, 3)).tolist() == [1, 0, 2]
    assert report.n_excluded == 0


def test_ingest_empty_file_is_data_error(basic_schema):
    with pytest.raises(DataError):
        ingest_text("ls,neuro,ghq,female,married\n", basic_schema)


def test_ingest_bare_carriage_return_is_data_error(basic_schema):
    # A text stream splits lines at "\n" only, so csv.reader sees the "\r".
    text = make_csv([(6, 1.0, 10, 0, 0), ("7\r", 2.0, 20, 0, 0)])
    with pytest.raises(DataError, match="cannot parse input as CSV: new-line"):
        ingest_text(text, basic_schema)


def test_ingest_unmapped_codes_are_tallied(basic_schema):
    rows = []
    for i in range(10):
        raw_x = 9 if i in (2, 5, 8) else 4
        rows.append((raw_x, float(i), i, i % 2, 0))
    data, report = ingest_text(make_csv(rows), basic_schema)
    assert report.n_read == 10
    assert report.n_kept == 7
    assert report.reasons == {"unmapped_x": 3}
    assert data.n == 7


def test_ingest_missing_column_is_schema_error(basic_schema):
    with pytest.raises(SchemaError):
        ingest_text("ls,neuro,female,married\n1,2,0,0\n", basic_schema)


def test_ingest_refuses_a_header_that_names_a_declared_column_twice():
    schema = Schema(x_column="x", y_column="y", z_column="z", w_columns=(),
                    x_recode={1: 1, 2: 2, 3: 3}, z_binning=(1.5, 2.5), y_binning=0.5)
    text = "x,y,z, x\n1,0,1,3\n2,1,2,3\n3,0,3,3\n"  # names match once stripped
    with pytest.raises(SchemaError, match=r"declared column 'x' more than once, "
                                          r"at columns \[1, 4\]"):
        ingest_text(text, schema)
    # An undeclared column may repeat.
    data, _ = ingest_text("id,x,y,z,id\n7,1,0,1,7\n8,2,1,2,8\n", schema)
    assert data.n == 2


def test_ingest_missing_and_nonbinary_values(basic_schema):
    rows = [
        (4, 1.0, 10, 0, 0),
        ("", 1.0, 11, 0, 0),       # missing x
        (4, 1.0, 12, 2, 0),        # non-binary covariate
        (4.5, 1.0, 13, 0, 0),      # non-integer x
        (4, "nan", 14, 0, 0),      # non-finite auxiliary
    ]
    data, report = ingest_text(make_csv(rows), basic_schema)
    assert data.n == 1
    assert report.reasons == {
        "missing_or_nonnumeric": 2,
        "nonbinary_w": 1,
        "noninteger_x": 1,
    }


def test_ingest_from_path(tmp_path, basic_schema):
    path = tmp_path / "data.csv"
    path.write_text(make_csv([(6, 1.0, 5, 1, 0), (1, 2.0, 25, 0, 1)]))
    data, _ = ingest(str(path), basic_schema)
    assert data.n == 2
    # cells 1 (female) and 2 (married)
    assert data.cell_counts().tolist() == [0, 1, 1, 0]


def test_ingest_ignores_a_byte_order_mark(tmp_path, basic_schema):
    # Excel and Stata exports start the header with one.
    text = make_csv([(6, 1.0, 5, 1, 0), (1, 2.0, 25, 0, 1), (9, 3.0, 15, 0, 0)])
    plain, marked = tmp_path / "plain.csv", tmp_path / "bom.csv"
    plain.write_bytes(text.encode())
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
    data, report = ingest(str(plain), basic_schema)
    bom_data, bom_report = ingest(str(marked), basic_schema)
    assert np.array_equal(bom_data.counts, data.counts)
    assert bom_data.w_labels == data.w_labels
    assert bom_report == report
    assert report.reasons == {"unmapped_x": 1}


def test_ingest_memory_is_bounded_by_a_block(tmp_path):
    # Fixed binning: every block is counted as it is read, so the peak does
    # not grow with the input (at 200k rows it was 17 MB, 10 times 20k's).
    schema = Schema(x_column="x", y_column="y", z_column="z",
                    w_columns=("w1", "w2", "w3"), x_recode={1: 1, 2: 2, 3: 3},
                    z_binning=(1.0, 2.0), y_binning=0.5)
    rng = np.random.default_rng(3)
    peaks = []
    for n in (20_000, 200_000):
        codes = rng.integers([1, 0, 1, 0, 0, 0], [4, 2, 4, 2, 2, 2], size=(n, 6))
        path = tmp_path / f"{n}.csv"
        np.savetxt(path, codes, fmt="%d", delimiter=",", header="x,y,z,w1,w2,w3",
                   comments="")
        tracemalloc.start()
        try:
            data, _ = ingest(str(path), schema)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert data.n == n
    assert peaks[1] <= 2 * peaks[0], peaks


# ---------------------------------------------------------------------------
# discretization
# ---------------------------------------------------------------------------


def test_median_split_strictly_above():
    assert median_split([1, 2, 3, 4, 5]).tolist() == [0, 0, 0, 1, 1]


def test_median_split_constant_list():
    assert median_split([2, 2, 2, 2]).tolist() == [0, 0, 0, 0]


def test_median_split_even_n_midpoint():
    # median of [1,2,3,4] is 2.5; only 3 and 4 lie strictly above
    assert median_split([4, 1, 3, 2]).tolist() == [1, 0, 1, 0]


def test_median_split_uniform_share():
    rng = np.random.default_rng(0)
    codes = median_split(rng.uniform(size=1000))
    assert 0.45 <= codes.mean() <= 0.55


def test_median_split_empty_raises():
    with pytest.raises(DataError):
        median_split([])


def test_tercile_equal_thirds_on_scale():
    codes = tercile_bin(np.arange(36))
    counts = np.bincount(codes, minlength=4)[1:]
    assert counts.tolist() == [12, 12, 12]


def test_tercile_constant_list_lower_bin():
    assert tercile_bin([7.0] * 5).tolist() == [1] * 5


def test_tercile_uniform_shares():
    rng = np.random.default_rng(1)
    codes = tercile_bin(rng.uniform(size=999))
    shares = np.bincount(codes, minlength=4)[1:] / 999
    assert np.all(shares >= 0.28) and np.all(shares <= 0.39)


def test_tercile_boundary_tie_goes_down():
    values = [1, 1, 1, 2, 2, 2, 3, 3, 3]
    codes = tercile_bin(values)
    # nearest-rank p33 = 1, p66 = 2: the 1s stay in bin 1, the 2s in bin 2
    assert codes.tolist() == [1, 1, 1, 2, 2, 2, 3, 3, 3]


# ---------------------------------------------------------------------------
# tabulate
# ---------------------------------------------------------------------------


def two_cell_dataset():
    return Dataset.from_records(
        x=np.array([1, 1, 2, 3, 3, 1, 2, 2, 3, 1, 2, 1]),
        y=np.array([0, 1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 0]),
        z=np.array([1, 2, 3, 1, 2, 3, 1, 2, 3, 1, 2, 3]),
        w=np.array([0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1]),
        support=(3, 2, 3),
        w_columns=("female",),
        w_labels=("0", "F"),
    )


def test_tabulate_two_identical_records():
    data = Dataset.from_records(
        x=np.array([1, 1]),
        y=np.array([0, 0]),
        z=np.array([1, 1]),
        w=np.array([0, 0]),
        support=(3, 2, 3),
    )
    table = tabulate(data)
    assert table[0, 0, 0] == 2
    assert table.sum() == 2


def test_tabulate_partition_identity():
    data = two_cell_dataset()
    pooled = tabulate(data)
    per_cell = [tabulate(data, c) for c in range(2)]
    assert np.array_equal(pooled, per_cell[0] + per_cell[1])


def test_tabulate_hand_tally():
    data = two_cell_dataset()
    table = tabulate(data, 0)
    expected = np.zeros((3, 2, 3), dtype=int)
    for x, y, z in [(1, 0, 1), (1, 1, 2), (2, 0, 3), (3, 1, 1), (3, 1, 2), (1, 0, 3)]:
        expected[x - 1, y, z - 1] += 1
    assert np.array_equal(table, expected)
    # a read-only view of the dataset's table
    assert np.shares_memory(table, data.counts) and not table.flags.writeable


def test_tabulate_empty_cell_names_cell():
    data = Dataset.from_records(
        x=np.array([1]), y=np.array([0]), z=np.array([1]), w=np.array([0]),
        support=(3, 2, 3), w_columns=("female",), w_labels=("0", "F"),
    )
    with pytest.raises(DataError, match="F"):
        tabulate(data, 1)


def test_frequency_pmf_order_invariance():
    data = two_cell_dataset()
    x, y, z, w = records_of(data)
    perm = np.random.default_rng(3).permutation(data.n)
    shuffled = Dataset.from_records(
        x=x[perm], y=y[perm], z=z[perm], w=w[perm],
        support=data.support, w_columns=data.w_columns, w_labels=data.w_labels,
    )
    a = tabulate(data) / data.n
    b = tabulate(shuffled) / shuffled.n
    assert np.array_equal(a, b)


def test_recode_idempotence(basic_schema):
    text = make_csv([(6, 1.0, 5, 0, 0), (3, 2.0, 15, 1, 0), (1, 0.5, 25, 0, 1)])
    data, _ = ingest_text(text, basic_schema)
    identity_schema = Schema(
        x_column="ls", y_column="neuro", z_column="ghq",
        w_columns=("female", "married"),
        x_recode={1: 1, 2: 2, 3: 3},
        z_binning=(1.0, 2.0),
        y_binning=0.5,
    )
    x, y, z, w = records_of(data)
    rows = [
        (int(xv), int(yv), int(zv), b0, b1)
        for xv, yv, zv, b0, b1 in zip(x, y, z, w & 1, (w >> 1) & 1)
    ]
    again, _ = ingest_text(make_csv(rows), identity_schema)
    # the joint (w, x, z) table: the count form of equal x, z and w codes
    assert np.array_equal(again.counts.sum(axis=2), data.counts.sum(axis=2))


# ---------------------------------------------------------------------------
# types and schema loading
# ---------------------------------------------------------------------------


def test_dataset_rejects_out_of_support():
    with pytest.raises(DataError):
        Dataset.from_records(
            x=np.array([4]), y=np.array([0]), z=np.array([1]), w=np.array([0]),
            support=(3, 2, 3),
        )


def test_schema_requires_surjective_recode():
    with pytest.raises(SchemaError):
        Schema(
            x_column="x", y_column="y", z_column="z", w_columns=(),
            x_recode={1: 1, 2: 3},
        )


def test_schema_limits_covariates():
    with pytest.raises(SchemaError):
        Schema(
            x_column="x", y_column="y", z_column="z",
            w_columns=tuple(f"w{i}" for i in range(9)),
            x_recode={1: 1},
        )


def test_load_schema_round_trip():
    text = """
[columns]
x = ls
y = neuro
z = ghq
w = degree, female, illness, income, married

[recode]
x = 1:1 2:1 3:2 4:2 5:2 6:3 7:3

[binning]
z = tercile
y = median

[labels]
w_letters = D, F, H, I, M
"""
    schema = load_schema(text)
    assert schema.s_x == 3
    assert schema.n_w_cells == 32
    assert schema.letters() == ("D", "F", "H", "I", "M")
    # Little-endian packing: the all-zero cell is "0", degree-only is "D".
    labels = cell_labels(5, schema.letters())
    assert labels[0] == "0"
    assert labels[1] == "D"
    assert labels[0b10110] == "FHM"


def test_load_schema_explicit_cuts():
    text = """
[columns]
x = x
y = y
z = z
w =

[recode]
x = 1:1 2:2

[binning]
z = cuts 1 2
y = above 0.5
"""
    schema = load_schema(text)
    assert schema.s_z == 3
    assert schema.y_binning == 0.5


def test_load_schema_bad_recode_pair():
    with pytest.raises(SchemaError):
        load_schema("[columns]\nx=a\ny=b\nz=c\n\n[recode]\nx = 1-2\n")


def test_load_schema_reads_percent_signs_literally():
    # No interpolation: "%" and "%(...)s" are part of a column's name.
    schema = load_schema("[columns]\nx=a%b\ny=b\nz=c%(y)s\n\n[recode]\nx = 1:1 2:2\n")
    assert (schema.x_column, schema.y_column, schema.z_column) == ("a%b", "b", "c%(y)s")


@pytest.mark.parametrize("rule", [
    "y = above", "y = above abc", "y = above 1 2", "y =", "y = mean",
    "z = cuts 1 x", "z = cuts", "z =", "z = tercile 3",
])
def test_load_schema_malformed_binning_rule(rule):
    key, _, value = (part.strip() for part in rule.partition("="))
    text = f"[columns]\nx=a\ny=b\nz=c\n\n[recode]\nx = 1:1 2:2\n\n[binning]\n{rule}\n"
    with pytest.raises(SchemaError, match=rf"bad {key} binning rule '{value}'"):
        load_schema(text)


@pytest.mark.parametrize("rule", [
    "z = cuts nan", "y = above nan", "y = above inf", "z = cuts 1 inf", "z = cuts -inf 1",
])
def test_load_schema_refuses_non_finite_binning_numbers(rule):
    # These once collapsed z or y to one code, or left a bin no value fills.
    text = f"[columns]\nx=a\ny=b\nz=c\n\n[recode]\nx = 1:1 2:2\n\n[binning]\n{rule}\n"
    with pytest.raises(SchemaError, match="must be finite"):
        load_schema(text)
