"""The float formatters against ``"%.17g" % v`` (CSV) and ``repr`` (JSON),
byte for byte."""

import json
import math

import numpy as np
import pytest

from zenopath import _csv, cli
from zenopath._csv import float_rows, json_rows

_csv_percent, _csv_repr = _csv._percent, _csv._repr


def _reference(table: np.ndarray) -> bytes:
    return "".join(",".join("%.17g" % v for v in row) + "\r\n"
                   for row in table.tolist()).encode()


def _assert_rows_equal(table: np.ndarray, name: str):
    got, want = float_rows(table), _reference(table)
    if got != want:  # name the first row that differs
        for row, g, w in zip(table.tolist(), got.split(b"\r\n"), want.split(b"\r\n")):
            assert g == w, (name, row)
    assert got == want, name


def _rows(values, n_cols):
    """``values`` as rows of ``n_cols``, the last row padded with 1.0."""
    values = np.asarray(values, dtype=np.float64).ravel()
    pad = -len(values) % n_cols
    return np.concatenate((values, np.ones(pad))).reshape(-1, n_cols)


def _cases():
    rng = np.random.default_rng(20261018)
    mantissas = rng.integers(0, 2**52, size=(2048, 64), dtype=np.uint64)
    exponents = np.arange(2048, dtype=np.uint64)[:, None] << np.uint64(52)
    signs = rng.integers(0, 2, size=(2048, 64), dtype=np.uint64) << np.uint64(63)
    decimal = rng.standard_normal(20_000) * 10.0 ** rng.integers(-8, 12, 20_000)
    near_2_53 = 2.0**53 + np.arange(-500, 500)
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    ties = np.array([odd * 2.0**-e for odd in range(1, 200, 2) for e in range(20, 70)])
    return {
        "random bit patterns": rng.integers(0, 2**64, 300_000, dtype=np.uint64).view(np.float64),
        "every exponent": (mantissas | exponents | signs).view(np.float64),
        "integers below 2^53": rng.integers(-2**53, 2**53, 100_000).astype(np.float64),
        "integers beyond 2^53": np.concatenate((
            rng.integers(2**53, 2**63, 50_000).astype(np.float64),
            rng.integers(1, 2**62, 50_000).astype(np.float64) * 2.0**rng.integers(1, 60, 50_000),
            near_2_53, -near_2_53)),
        "powers of ten +- 1 ulp": np.concatenate((
            powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf), -powers)),
        **{f"rounded to {d} decimals": np.round(decimal, d) for d in range(13)},
        "fast range": rng.standard_normal(200_000) * 10.0 ** rng.uniform(-31, 31, 200_000),
        "specials and the edges of the fast range": np.array([
            0.0, -0.0, 5e-324, -5e-324, math.inf, -math.inf, math.nan, -math.nan,
            1e30, -1e30, np.nextafter(1e30, 0), np.nextafter(1e30, np.inf),
            1e-30, -1e-30, np.nextafter(1e-30, 0), np.nextafter(1e-30, 1),
            9.9999999999999999e29, 1.0000000000000001e-30, 2.2250738585072014e-308,
            1.7976931348623157e308, 1e-4, 9.9999999999999991e-05, 1e16, 1e17]),
        "3-digit exponents": np.concatenate((
            10.0 ** rng.uniform(100, 308, 10_000), 10.0 ** -rng.uniform(100, 323, 10_000))),
        "ties": np.concatenate(([2**-25, 3 * 2**-25], ties, -ties)),
    }


def test_float_rows_equals_percent_17g_byte_for_byte():
    n_values = 0
    for k, (name, values) in enumerate(_cases().items()):
        _assert_rows_equal(_rows(values, 1 + k % 9), name)
        n_values += values.size
    assert n_values >= 10**6


def test_float_rows_leaves_few_cells_to_percent(monkeypatch):
    # the fast path writes all but the rare cells it leaves to "%": an
    # estimate of X that is never corrected would still give the same bytes
    slow = []
    monkeypatch.setattr(_csv, "_percent", lambda values: slow.extend(values) or
                        _csv_percent(values))
    cases = _cases()
    # below 1e5 a random double is an exact tie (18 significant digits, the
    # last a 5) with a chance below 2^-20; an integer below 2^53 is none
    fast = cases["fast range"][(abs(cases["fast range"]) >= 1e-29)
                               & (abs(cases["fast range"]) < 1e5)]
    for name, values in (("fast range", fast), ("integers below 2^53",
                                                cases["integers below 2^53"])):
        slow.clear()
        _assert_rows_equal(_rows(values, 5), name)
        assert len(slow) <= 1e-4 * values.size, (name, slow[:5])
    # near a power of ten the estimate of X is one off, or 17 digits round up
    # to the next power: X is corrected once, and a few are left to "%"
    powers = np.array([float(f"1e{k}") for k in range(-29, 30)])
    slow.clear()
    _assert_rows_equal(_rows([powers, np.nextafter(powers, 0), np.nextafter(powers, 1e30)], 3),
                       "powers of ten")
    assert len(slow) <= 5, slow
    slow.clear()
    _assert_rows_equal(_rows(cases["ties"], 4), "ties")
    assert {2**-25, 3 * 2**-25} <= set(slow)  # exact ties, which "%" rounds to even
    # +-0 has a slot of its own, as the digit 0
    slow.clear()
    _assert_rows_equal(_zero_heavy(), "zero-heavy")
    assert slow == []


def _zero_heavy():
    """A seeded table in which half the cells are +0 or -0."""
    rng = np.random.default_rng(37)
    table = rng.uniform(-1.0, 1.0, (4000, 6))
    table[rng.random(table.shape) < 0.5] = 0.0
    table[rng.random(table.shape) < 0.25] *= -1.0
    return table


def test_float_rows_ties_round_half_to_even():
    # 2**-25 = 2.98023223876953125e-08 ends in an exact 5 after 17 digits
    assert float_rows(np.array([[2**-25, 3 * 2**-25]])) == (
        b"2.9802322387695312e-08,8.9406967163085938e-08\r\n")


@pytest.mark.parametrize("argv", [
    ["mlp", "--dt", "1e-3", "--t-end", "3"],
    ["mlp", "--lambda", "0.5", "--dt", "1e-3", "--t-end", "25"],
    ["ensemble", "--n", "20", "--t-end", "3", "--seed", "3"],
])
def test_float_rows_equals_percent_17g_on_every_cell_of_a_table(argv):
    args = cli.build_parser().parse_args(argv)
    _, rows = args.handler(args)
    table = rows if isinstance(rows, np.ndarray) else np.concatenate(list(rows))
    assert table.shape[0] > 2000
    _assert_rows_equal(table, argv[0])


def test_float_rows_of_an_empty_block_and_a_column_view():
    assert float_rows(np.empty((0, 3))) == b""
    table = np.arange(12.0).reshape(4, 3) / 7
    _assert_rows_equal(table[:, 1:], "column view")


def _json_reference(table: np.ndarray) -> bytes:
    return ",".join("\n  [\n   " + ",\n   ".join(json.dumps(v) for v in row) + "\n  ]"
                    for row in table.tolist()).encode()


def _assert_json_rows_equal(table: np.ndarray, name: str):
    got, want = json_rows(table), _json_reference(table)
    if got != want:  # name the first row that differs
        for row, g, w in zip(table.tolist(), got.split(b"\n  ],"), want.split(b"\n  ],")):
            assert g == w, (name, row)
    assert got == want, name


def _json_cases():
    """The CSV cases plus the edges of repr's layout and of its shortest digits."""
    rng = np.random.default_rng(20261019)
    twos = 2.0 ** np.arange(-1074, 1024)
    edges = np.array([1e-5, 1e-4, 1e15, 1e16, 9999999999999998.0, 9.999999999999999e15,
                      9.9999999999999995e-05, 99999.99999999999, 0.1, 0.3, 1 / 3])
    near = np.concatenate([np.nextafter(edges, 0), edges, np.nextafter(edges, np.inf)])
    steps = np.arange(-64, 65)
    spread = edges[:, None] * (1.0 + steps * 2.0**-52)  # up to 64 ulps around each edge
    return {
        **_cases(),
        "powers of two +- 1 ulp": np.concatenate((
            twos, np.nextafter(twos, 0), np.nextafter(twos, np.inf), -twos)),
        "next to 1e-5, 1e-4, 1e15, 1e16 and 9.999...e15": np.concatenate((near, spread.ravel())),
        "time grid k 1e-3": np.arange(200_001) * 1e-3,
        "specials": np.array([0.0, -0.0, 5e-324, -5e-324, math.inf, -math.inf, math.nan]),
        "random decimals of 1-17 digits": np.concatenate([
            rng.integers(1, 10**d, 10_000) * 10.0 ** rng.integers(-25, 25, 10_000)
            for d in range(1, 18)]),
    }


def test_json_rows_equals_repr_byte_for_byte():
    n_values = 0
    for k, (name, values) in enumerate(_json_cases().items()):
        _assert_json_rows_equal(_rows(values, 1 + k % 9), name)
        n_values += values.size
    assert n_values >= 10**6


def test_json_rows_leaves_few_cells_to_repr(monkeypatch):
    # a fast path that sends every cell to repr would give the same bytes
    slow = []
    monkeypatch.setattr(_csv, "_repr", lambda values: slow.extend(values) or _csv_repr(values))
    cases = _json_cases()
    # powers of two are left to repr on purpose; below 1e5 a random double is
    # a tie at 17 digits with a chance below 2^-20, and an integer is none
    for name, below in (("fast range", 1e5), ("integers below 2^53", 2.0**53),
                        ("time grid k 1e-3", 1e5), ("random decimals of 1-17 digits", 1e5)):
        values = cases[name]
        values = values[(abs(values) >= 1e-29) & (abs(values) < below)
                        & (abs(np.frexp(values)[0]) != 0.5)]
        values = values[:values.size // 5 * 5]
        assert values.size >= 50_000, name
        slow.clear()
        _assert_json_rows_equal(values.reshape(-1, 5), name)
        assert len(slow) <= 1e-4 * values.size, (name, slow[:5])
    slow.clear()
    _assert_json_rows_equal(_zero_heavy(), "zero-heavy")
    assert slow == []
    # a power of two is left to repr: the doubles around it are not evenly spaced
    slow.clear()
    _assert_json_rows_equal(np.array([[0.5, -4.0, 1024.0, 3.0]]), "powers of two")
    assert slow == [0.5, -4.0, 1024.0]


def test_json_rows_layout():
    assert json_rows(np.array([[0.0, -0.0, 1.5], [1e16, 1e15, 1e-5]])) == (
        b"\n  [\n   0.0,\n   -0.0,\n   1.5\n  ],"
        b"\n  [\n   1e+16,\n   1000000000000000.0,\n   1e-05\n  ]")
    assert json_rows(np.array([[math.nan, math.inf, -math.inf]])) == (
        b"\n  [\n   NaN,\n   Infinity,\n   -Infinity\n  ]")
    assert json_rows(np.empty((0, 3))) == b""


@pytest.mark.parametrize("argv", [
    ["trajectory", "--lambda", "1.5", "--t-end", "20"],
    ["trajectory", "--lambda", "0.5", "--t-end", "5", "--seed", "7", "--gaussian"],
    ["mlp", "--dt", "1e-3", "--t-end", "3"],
])
def test_json_rows_equals_repr_on_every_cell_of_a_table(argv):
    args = cli.build_parser().parse_args(argv)
    _, rows = args.handler(args)
    table = rows if isinstance(rows, np.ndarray) else np.concatenate(list(rows))
    assert table.shape[0] > 2000
    _assert_json_rows_equal(table, argv[0])
