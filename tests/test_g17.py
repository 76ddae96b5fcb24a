"""The CSV cell formatter writes every finite float64 exactly as '%.17g' % x does."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from pseudospin._g17 import CHUNK, SMALL, _cells, _known, csv_text

RNG = np.random.default_rng(20261019)


def as_table(values) -> np.ndarray:
    """A 2-D table as it is, anything else as one column."""
    table = np.asarray(values, dtype=float)
    return table if table.ndim == 2 else table.reshape(-1, 1)


def encode(values) -> str:
    text = csv_text("h", [as_table(values)])
    assert isinstance(text, memoryview) and text[:2] == b"h\n"
    return bytes(text[2:]).decode("ascii")


def reference(values) -> str:
    """One '%.17g' per cell, in one format call (an np.float64 formats as its float)."""
    table = as_table(values)
    row = ",".join(["%.17g"] * table.shape[1]) + "\n"
    return (row * len(table)) % tuple(table.ravel().tolist())


def kernel(values) -> str:
    """The kernel's text of one column of cells, however few (csv_text formats a block of fewer
    than SMALL cells with '%' instead)."""
    return _cells(np.asarray(values, dtype=float).reshape(-1, 1), [b"\n"]).decode("ascii")


def assert_cells_match(values):
    values = np.asarray(values, dtype=float)
    assert np.isfinite(values).all()
    got, want = kernel(values).splitlines(), reference(values).splitlines()
    assert len(got) == len(want)
    wrong = [(float(x), g, w) for x, g, w in zip(values, got, want) if g != w]
    assert not wrong, wrong[:5]


@settings(max_examples=60, deadline=None)
@given(hnp.arrays(np.uint64, st.integers(1, 64), elements=st.integers(0, 2**64 - 1)))
def test_every_bit_pattern_of_a_finite_double(bits):
    values = bits.view(np.float64)
    assert_cells_match(values[np.isfinite(values)])


def test_powers_of_ten_and_their_neighbours():
    # log10 is off by one next to a power of ten, and k is corrected there
    values = []
    for k in range(-35, 36):
        x = float(f"1e{k}")
        for direction in (np.inf, -np.inf):
            y = x
            for _ in range(8):
                y = np.nextafter(y, direction)
                values.append(y)
        values.append(x)
    values = np.array(values)
    assert_cells_match(np.concatenate([values, -values]))


@pytest.mark.parametrize(
    "x, text",
    [
        (1e-06, "9.9999999999999995e-07"),  # k is that of the unrounded value, -7
        (9.9999999999999995e-07, "9.9999999999999995e-07"),
        (99999999999999999.0, "1e+17"),  # D rounds up to 10^17: a carry to k + 1
        (1e16, "10000000000000000"),
        (9999999999999998.0, "9999999999999998"),
        (1e17, "1e+17"),
        (0.0001, "0.0001"),
        (1e-05, "1.0000000000000001e-05"),
        (123456789.0, "123456789"),
        (0.5, "0.5"),
        (1234567890123456.25, "1234567890123456.2"),  # an exact tie, rounded to even
        (1234567890123456.75, "1234567890123456.8"),
        (0.0, "0"),
        (-0.0, "-0"),
        (5e-324, "4.9406564584124654e-324"),
        (-2.2250738585072009e-308, "-2.2250738585072009e-308"),
        (1.7976931348623157e308, "1.7976931348623157e+308"),
        (1e30, "1e+30"),  # the edges of the range of fast cells
        (9.999999999999999e29, "9.9999999999999988e+29"),
        (1e-30, "1.0000000000000001e-30"),
    ],
)
def test_fixed_cells(x, text):
    assert "%.17g" % x == text
    assert kernel([x]) == text + "\n"


def test_exact_ties_of_every_exponent():
    # x = odd / 2^(17-k) in [10^k, 10^(k+1)) makes x 10^(16-k) = odd 5^(16-k) / 2, a
    # half-integer; a double has such an odd numerator (below 2^53) for k = -8..15 only
    values = []
    for k in range(-8, 16):
        j = 17 - k
        low = math.ceil(Fraction(10) ** k * 2**j)
        high = min(math.ceil(Fraction(10) ** (k + 1) * 2**j), 2**53)
        odd = (low | 1) + 2 * RNG.integers(0, (high - (low | 1) + 1) // 2, 20)
        values += [float(n) / 2.0**j for n in odd.tolist()]
    values = np.array(values)
    assert_cells_match(np.concatenate([values, -values]))


def test_subnormals_zeros_and_fallback_cells_share_a_block_with_fast_ones():
    subnormals = (RNG.integers(1, 2**52, 50, dtype=np.uint64)).view(np.float64)
    cells = [1.5, 1e300, -0.0, 0.1, 1234567890123456.25, 2.0, 0.0, -1e-300, 3.0, -7.25e-31]
    values = np.concatenate([cells, subnormals, -subnormals, cells])
    assert_cells_match(values)
    table = np.tile(values, 8).reshape(-1, 10)
    assert table.size >= SMALL and encode(table) == reference(table)


@pytest.mark.parametrize("columns", [1, 3, 7, 9])
def test_tables_that_straddle_a_block(columns):
    step = max(1, CHUNK // columns)
    for rows in (step - 1, step, step + 1, 2 * step + 1):
        shape = (rows, columns)
        table = RNG.standard_normal(shape) * 10.0 ** RNG.integers(-40, 40, shape)
        blocks = max(1, min(rows, round(rows * columns / CHUNK)))  # of equal size, to a row
        starts = [rows * i // blocks for i in range(blocks)]
        table[[start - 1 for start in starts[1:]] + [-1], -1] = 1e-300  # the last cell of each
        table[starts, 0] = -0.0  # and the first
        assert encode(table) == reference(table)


def test_empty_table():
    assert encode(np.zeros((0, 9))) == ""


@pytest.mark.parametrize("cells", [1, SMALL - 1, SMALL, SMALL + 1])
def test_blocks_either_side_of_the_small_block_size(cells):
    # below SMALL cells a block is one '%' call, from SMALL on the kernel's
    values = RNG.standard_normal(cells) * 10.0 ** RNG.integers(-40, 40, cells)
    assert encode(values) == reference(values)


def test_seeded_random_values():
    # normals over 66 decades, about one in 20 outside the fast range, and raw bit patterns
    normal = RNG.standard_normal(190_000) * 10.0 ** RNG.uniform(-33, 33, 190_000)
    bits = RNG.integers(0, 2**64, 10_000, dtype=np.uint64).view(np.float64)
    values = np.concatenate([normal, bits[np.isfinite(bits)]])
    values = RNG.permutation(values)[: len(values) // 9 * 9].reshape(-1, 9)
    assert encode(values) == reference(values)


# column kinds of tables with columns of known text: "x" is formatted cell by cell, "+0" and
# "-0" are signed zeros, "0/-0" mixes them, "0.5" and "7" are constants of longer and shorter
# text, and "last" is a constant but for its last row
COLUMN_KINDS = {
    "x": lambda rows: RNG.standard_normal(rows) * 10.0 ** RNG.integers(-40, 40, rows),
    "+0": lambda rows: np.zeros(rows),
    "-0": lambda rows: np.full(rows, -0.0),
    "0/-0": lambda rows: RNG.choice([0.0, -0.0], rows),
    "0.5": lambda rows: np.full(rows, 0.5),
    "7": lambda rows: np.full(rows, 7.0),
    "last": lambda rows: np.concatenate([np.zeros(rows - 1), [1.5]]),
}
LAYOUTS = [
    ["x", "+0", "x", "+0", "x", "+0", "x", "x", "x"],  # a trajectory of real Bloch vectors
    ["x", "-0", "x", "0/-0"],
    ["x", "+0", "+0", "x", "-0"],  # two adjacent zero columns: ",0,0," does not fit
    ["+0", "x", "7"],  # a constant first column, and a constant last one
    ["7", "+0", "x", "0.5", "x", "0.5"],  # 0.5 does not fit: ",0.5," and ",0.5\n"
    ["x", "last", "x", "last"],
]


def known_table(layout, rows) -> np.ndarray:
    return np.stack([COLUMN_KINDS[kind](rows) for kind in layout], axis=1)


def test_known_columns_join_the_end_text_before_them_where_it_fits():
    table = known_table(["x", "+0", "+0", "x", "-0"], 200)
    kept, ends = _known([table], [b","] * 4 + [b"\n"])
    assert [c.shape for c in kept] == [(200, 1)] * 3
    assert np.array_equal(np.concatenate(kept, axis=1), table[:, [0, 2, 3]])
    assert ends == [b",0,", b",", b",-0\n"]


def row_counts(width: int, formatted: int) -> list:
    """Row counts either side of SMALL cells, and either side of where the number of blocks,
    round(formatted cells / CHUNK), changes."""
    small = -(-SMALL // width)
    counts = [small - 1, small, small + 1]
    for blocks in (1.5, 2.5):
        edge = round(blocks * CHUNK / formatted)
        counts += [edge - 1, edge, edge + 1]
    return counts


@pytest.mark.parametrize("layout", LAYOUTS, ids="|".join)
def test_tables_with_known_columns_match_one_format_call(layout):
    table = known_table(layout, 2)
    _, ends = _known([table], [b","] * (len(layout) - 1) + [b"\n"])
    for rows in row_counts(len(layout), len(ends)):
        table = known_table(layout, rows)
        assert encode(table) == reference(table), rows
        # as 1-D columns and as a 2-D column followed by a 1-D one
        want = "h\n" + reference(table)
        assert bytes(csv_text("h", list(table.T))).decode("ascii") == want, rows
        assert bytes(csv_text("h", [table[:, :-1], table[:, -1]])).decode("ascii") == want, rows
