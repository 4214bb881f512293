"""The CSV formatter against Python's float ``repr``, byte for byte."""

import tracemalloc

import numpy as np
import pytest

from cfcontrol import emit
from cfcontrol.emit import format_values, write_csv, write_csvs


def mismatches(values, cols=1):
    """The first few (repr, written) pairs that differ, cell by cell."""
    values = np.asarray(values, dtype=np.float64).reshape(-1, cols)
    text = format_values(values).tobytes().decode("ascii")
    lines = text.split("\n")
    assert lines.pop() == ""
    written = [cell for line in lines for cell in line.split(",")]
    expected = [repr(v) for row in values.tolist() for v in row]
    assert len(lines) == len(values) and len(written) == len(expected)
    return [(e, w) for e, w in zip(expected, written) if e != w][:5]


def with_neighbours(values):
    values = np.asarray(values, dtype=np.float64)
    with np.errstate(over="ignore"):  # past the largest double: inf
        return np.concatenate((values, np.nextafter(values, np.inf),
                               np.nextafter(values, -np.inf)))


def test_random_bit_patterns_match_repr():
    bits = np.random.default_rng(20240601).integers(
        0, 2**64 - 1, 200_000, dtype=np.uint64, endpoint=True)
    assert mismatches(bits.view(np.float64), cols=8) == []


def test_special_and_boundary_values_match_repr():
    nan_bits = np.array([0x7FF8000000000000, 0xFFF8000000000000,
                         0x7FF0000000000001, 0xFFFFFFFFFFFFFFFF], np.uint64)
    specials = [0.0, -0.0, np.inf, -np.inf, *nan_bits.view(np.float64)]
    # 1e-4 / 1e-5 and 1e16 are where repr switches to exponent notation;
    # 2**53 is where the spacing of doubles passes 1
    edges = with_neighbours([1e-4, 1e-5, 1e16, 1e15, 1e17, 2.0**53 - 1,
                             2.0**53, 2.0**53 + 2, 5e-324, 2.2250738585072014e-308,
                             1.7976931348623157e308, 1e-100, 1e100, 1e-99,
                             1e99, 0.1, 0.5, 1.0, 1.0 / 3.0, 2.0 / 3.0])
    values = np.concatenate((specials, edges))
    assert mismatches(np.concatenate((values, -values))) == []


def test_subnormals_and_powers_of_two_and_ten_match_repr():
    rng = np.random.default_rng(7)
    subnormals = rng.integers(1, 2**52, 20_000, dtype=np.uint64)
    powers_of_two = with_neighbours(np.ldexp(1.0, np.arange(-1074, 1024)))
    powers_of_ten = with_neighbours([float(f"1e{k}")
                                     for k in range(-323, 309)])
    values = np.concatenate((subnormals.view(np.float64), powers_of_two,
                             powers_of_ten))
    assert mismatches(np.concatenate((values, -values))) == []


def rare_branches(value):
    """The rare branches of the shortest-digit core (Dragonbox, binary64,
    kappa = 2) that ``value`` takes, recomputed with Python integers from
    the module's tables."""
    bits = int(np.float64(value).view(np.uint64))
    bexp, mant = bits >> 52 & 0x7FF, bits & (2**52 - 1)
    taken = {"subnormal"} if bexp == 0 else set()
    if mant == 0 and bexp > 1:
        e = bexp - 1075
        minus_k = (e * 631305 - 261663) >> 21
        beta = e + (-minus_k * 1741647 >> 19)
        hi = int(emit._cache()[292 - minus_k, 0])
        xi = (hi - (hi >> 54)) >> (11 - beta)
        if e in (2, 3):
            taken.add("shorter, integer lower end")
        else:
            xi += 1
        zi = (hi + (hi >> 53)) >> (11 - beta)
        y = ((hi >> (10 - beta)) + 1) >> 1
        if zi // 10 * 10 < xi:
            if e == -77 and y % 2:
                taken.add("shorter, tie")
            elif y < xi:
                taken.add("shorter, raised")
        return taken
    hi, _, _, lo0, lo1, hidden, beta, delta, _ = \
        (int(v) for v in emit._EXP_ROWS[:, bexp])
    phi = hi << 64 | lo1 << 32 | lo0
    two_fc = 2 * (mant | hidden)
    product = ((two_fc + 1) << beta) * phi
    r = (product >> 128) % 1000

    def parity(x):
        low = x * phi % 2**128
        return low >> (128 - beta) & 1, low >> (64 - beta) & (2**64 - 1) == 0

    if r == 0 and (product >> 64) % 2**64 == 0 and two_fc % 4:
        taken.add("excluded upper end")
        r = 1000
    wide = r < delta
    if r == delta:
        odd, whole = parity(two_fc - 1)
        wide = odd or (whole and two_fc % 4 == 0)
        taken.add("tie, wide" if wide else "tie, narrow")
    dist = r - delta // 2 + 50
    if not wide and dist % 100 == 0:
        odd, whole = parity(two_fc)
        taken.add("close, lowered" if odd != (dist ^ 50) & 1 else
                  "close, exact" if whole else "close, kept")
    return taken


RARE_BRANCH_CASES = {
    # r == delta: the parity of (2fc - 1)·phi picks the divisor
    "tie, wide": [4.436508855672659e+42, 2.231098216103612e-85,
                  2.074847090435357e-308],
    "tie, narrow": [6.9937800235945694e-74, 3.8901526814138653e+79,
                    9.706592487708232e-309],
    "excluded upper end": [5.8718045137241816e+16, 6.7427878296854696e+16,
                           2.3163227208745548e+16],
    # dist % 100 == 0: the parity of 2fc·phi corrects the last digit;
    # ...19.75 and ...85.25 are exact ties, rounded to the even digit
    "close, lowered": [1.9068262144305265e-267, 3.4854075714134745e+161,
                       3.334995305228146e-309],
    "close, exact": [1803046310274419.8, 2076740591718185.2],
    "close, kept": [6.723965116384558e+58, 6.206279751164358e-309],
    "shorter, tie": [2.0**-25],
    "shorter, integer lower end": [2.0**54, 2.0**55],
    "shorter, raised": [2.0**-1017, 7.291122019556398e-304,
                        6.256509672447191e-148],
    "subnormal": [5e-324, 2.225073858507201e-308, 3.43170339323169e-309],
}


@pytest.mark.parametrize("branch", sorted(RARE_BRANCH_CASES))
def test_rare_branches_match_repr(branch):
    # random bit patterns reach these branches only by chance
    values = RARE_BRANCH_CASES[branch]
    assert all(branch in rare_branches(v) for v in values)
    assert mismatches(values + [-v for v in values]) == []


def test_integers_and_short_decimals_match_repr():
    integers = np.arange(-50_000, 50_000, dtype=np.float64)
    decimals = np.arange(50_000) / 1000.0
    scaled = np.random.default_rng(3).standard_normal(20_000) \
        * 10.0 ** np.arange(-30, 30).repeat(20_000 // 60 + 1)[:20_000]
    assert mismatches(np.concatenate((integers, decimals, scaled)),
                      cols=4) == []


def test_cells_read_back_bit_for_bit(tmp_path):
    # values survive the text: one column (newline after every cell) and
    # many columns written across several blocks
    rng = np.random.default_rng(11)
    for rows, cols in ((50, 1), (3001, 13)):
        table = rng.integers(0, 2**64 - 1, (rows, cols), dtype=np.uint64,
                             endpoint=True).view(np.float64)
        path = tmp_path / f"{cols}.csv"
        write_csv(path, [f"c{k}" for k in range(cols)], table[:, 0],
                  table[:, 1:])
        lines = path.read_text().split("\n")
        assert lines[0] == ",".join(f"c{k}" for k in range(cols))
        assert lines[-1] == "" and len(lines) == rows + 2
        back = np.array([[float(v) for v in line.split(",")]
                         for line in lines[1:-1]])
        assert back.shape == (rows, cols)
        nan = np.isnan(table)
        assert np.array_equal(np.isnan(back), nan)
        assert np.array_equal(back[~nan].view(np.uint64),
                              table[~nan].view(np.uint64))


def assert_files_match_one_file_writes(tmp_path, columns, picks):
    """Each file of one ``write_csvs`` call over ``columns`` holds the bytes
    that ``write_csv`` writes for its columns alone."""
    table = np.column_stack(columns)
    files = [(tmp_path / f"joint{k}.csv", [f"c{c}" for c in pick], pick)
             for k, pick in enumerate(picks)]
    write_csvs(files, *columns)
    for path, header, pick in files:
        alone = tmp_path / "alone.csv"
        write_csv(alone, header, table[:, pick])
        assert path.read_bytes() == alone.read_bytes(), pick


def test_files_of_one_table_match_their_one_file_writes(tmp_path):
    rng = np.random.default_rng(13)
    # the rare branches, in a table of three columns (the last one the
    # negated values); the files print them in several orders
    rare = np.array([v for values in RARE_BRANCH_CASES.values()
                     for v in values])
    assert_files_match_one_file_writes(
        tmp_path, [rare, rare[::-1], -rare], [[0, 1, 2], [2], [1, 0], [2, 2]])
    # random bit patterns over several blocks; files like trajectory.csv
    # and control.csv (tau, t, then their own columns: not a prefix of the
    # table), a one-column file, and one of the whole table
    table = rng.integers(0, 2**64 - 1, (3001, 13), dtype=np.uint64,
                         endpoint=True).view(np.float64)
    assert_files_match_one_file_writes(
        tmp_path, [table[:, 0], table[:, 1], table[:, 2:7], table[:, 7:]],
        [list(range(7)), [0, 1, *range(7, 13)], [5], list(range(13))])
    # a column outside the table would read a neighbouring row's cell
    for pick in ([13], [-1], []):
        with pytest.raises(ValueError, match="among 0 to 12"):
            write_csvs([(tmp_path / "bad.csv", ["c"] * len(pick), pick)],
                       table)


def test_writing_a_large_table_holds_little_memory(tmp_path):
    # the table is formatted in blocks: the traced peak is well below the
    # 10.6 MB of the float table itself, also for two files that share the
    # tau and t columns
    rng = np.random.default_rng(5)
    tau = np.linspace(0.0, 1.0, 20001)
    values = rng.standard_normal((20001, 64))
    control = rng.standard_normal((20001, 64))
    header = ["tau", "t"] + [f"x{k}" for k in range(64)]
    tracemalloc.start()
    try:
        write_csv(tmp_path / "big.csv", header, tau, tau ** 1.25, values)
        one = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        write_csvs([(tmp_path / "x.csv", header, range(66)),
                    (tmp_path / "u.csv", header, [0, 1, *range(66, 130)])],
                   tau, tau ** 1.25, values, control)
        two = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert one < 10e6 and two < 10e6
    assert (tmp_path / "x.csv").read_bytes() \
        == (tmp_path / "big.csv").read_bytes()
