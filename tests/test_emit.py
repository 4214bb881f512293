"""The CSV formatter against Python's float ``repr``, byte for byte."""

import tracemalloc

import numpy as np

from cfcontrol.emit import format_values, write_csv


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


def test_writing_a_large_table_holds_little_memory(tmp_path):
    # the table is formatted in blocks: the traced peak is well below the
    # 10.6 MB of the float table itself
    rng = np.random.default_rng(5)
    tau = np.linspace(0.0, 1.0, 20001)
    values = rng.standard_normal((20001, 64))
    tracemalloc.start()
    try:
        write_csv(tmp_path / "big.csv", ["tau", "t"] + [f"x{k}" for k in
                                                        range(64)],
                  tau, tau ** 1.25, values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10e6
