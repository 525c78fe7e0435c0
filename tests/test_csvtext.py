"""Differential tests of the trajectory CSV engine against ``'%.17g' % v``.

``_csvtext.csv_blocks`` must give, for any float64 rows, exactly the bytes
of the per-row ``%`` template; rows it cannot round with certainty go
through that template, so every case here compares whole texts.
"""

import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

import resistnet
from resistnet._csvtext import _significands, csv_blocks


def reference(rows):
    rows = np.asarray(rows, dtype=float)
    template = ",".join(["%.17g"] * rows.shape[1]) + "\n"
    return "".join(template % tuple(row) for row in rows.tolist()).encode()


def engine(rows):
    return b"".join(csv_blocks(np.asarray(rows, dtype=float)))


def assert_same_text(rows):
    got, want = engine(rows), reference(rows)
    if got != want:
        pairs = zip(got.decode().replace("\n", ",").split(","), want.decode().replace("\n", ",").split(","))
        wrong = [(g, w) for g, w in pairs if g != w]
        pytest.fail(f"{len(wrong)} values differ, first {wrong[:5]}")


def test_random_bit_patterns():
    # every finite double is as likely as any other: subnormals, huge and
    # tiny exponents, both signs; NaN payloads and infinities included
    rng = np.random.default_rng(17)
    bits = rng.integers(0, 2 ** 64, size=1_000_000, dtype=np.uint64, endpoint=False)
    assert_same_text(bits.view(np.float64).reshape(-1, 500))


def test_magnitude_bands():
    rng = np.random.default_rng(18)
    for low, high in [(-5, 1), (0, 17), (15, 19), (-40, 40), (-323, 308)]:
        values = rng.uniform(1.0, 10.0, size=100_000) * 10.0 ** rng.integers(low, high, size=100_000)
        assert_same_text((values * rng.choice([-1.0, 1.0], size=values.size)).reshape(-1, 250))


def test_powers_of_ten_and_their_neighbours():
    powers = np.array([float(f"1e{p}") for p in range(-323, 309)])
    below, above = np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)
    assert_same_text(np.concatenate((powers, below, above, -powers)).reshape(4, -1))


def test_eighths_and_small_integers():
    n = np.arange(0, 20_000, dtype=float)
    assert_same_text(np.stack((n / 8.0, -n / 8.0, n, n / 1024.0)))


def test_values_that_round_across_a_power_of_ten():
    values = [9.9999999999999995e-05, 99999999999999999.0, 9.9999999999999999e22,
              0.099999999999999999, 999999999999999.94, 9.9999999999999998e-301,
              9.9999999999999991e+307, 1e16, 1e17, 1 + 2.0 ** -17, 2.5, 0.5]
    assert_same_text([values, [-v for v in values]])


def test_exact_ties_round_half_to_even():
    # a + b 2^-17 with one integer digit and b odd has 18 significant
    # digits, the last a 5: '%.17g' rounds it to the even neighbour
    odd = np.arange(1, 2 ** 17, 2, dtype=float)
    values = np.concatenate([a + odd * 2.0 ** -17 for a in range(1, 10)])
    assert_same_text(values.reshape(-1, 512))
    assert not _significands(values)[-1].any()  # exact, so the engine rounds them itself
    assert engine([[1 + 2.0 ** -17, 1 + 3 * 2.0 ** -17]]) == b"1.0000076293945312,1.0000228881835938\n"


def decimal_values(significands, exponents):
    # every 17-digit significand string at every decimal exponent, with
    # alternating signs: the doubles nearest to d.ddd...e<X>
    texts = [f"{'-' if i % 2 else ''}{s[0]}.{s[1:]}e{e}" for e in exponents for i, s in enumerate(significands)]
    return np.array([float(t) for t in texts])


def test_every_digit_group_at_every_group_position():
    # a 4-digit group 0000-9999 at significand digits 1-4, 2-5, 6-9, 10-13
    # and 14-17, the rest zeros or one fixed digit string, in fixed notation
    # (-4, -1, 0, 7, 16) and just outside it on both sides (-5, 17)
    rest = "31415926535897932384"
    significands = []
    for offset in (0, 1, 5, 9, 13):
        for fill in ("0" * 17, rest[:17]):
            significands += [fill[:offset] + "%04d" % v + fill[offset + 4:] for v in range(10 ** 4)]
    values = decimal_values(significands, (-5, -4, -1, 0, 7, 16, 17))
    assert_same_text(values.reshape(-1, 1000))


def test_every_significant_digit_count_at_every_exponent():
    # 1 to 17 significant digits (the last one nonzero) at decimal exponents
    # -6 to 18: every trailing-zero strip, point position and the two
    # fixed/scientific boundaries
    rng = np.random.default_rng(22)
    significands = []
    for count in range(1, 18):
        for _ in range(12):
            digits = rng.integers(0, 10, size=count)
            digits[0] = rng.integers(1, 10)
            digits[-1] = rng.integers(1, 10)
            significands.append("".join(map(str, digits)).ljust(17, "0"))
    values = decimal_values(significands, range(-6, 19))
    assert_same_text(values.reshape(-1, 17 * 12))


def test_zeros_and_non_finite_values():
    assert_same_text([[0.0, -0.0, np.nan, np.inf, -np.inf, 1.0]])
    assert_same_text([[0.0, -0.0], [-0.0, 0.0]])
    assert engine([[0.0, -0.0, np.nan, np.inf, -np.inf]]) == b"0,-0,nan,inf,-inf\n"


def test_rows_mix_fixed_and_scientific_layouts():
    row = [1e-5, 1e-4, 0.00012345, 0.5, 1.0, 123.25, 1e16, 1.5e16, 1e17, 12345678901234567.0,
           -2.5e-7, 6.02214076e23, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
           1e100, 1e-100, 123e-120]
    assert_same_text([row, row[::-1], [-v for v in row]])


def test_block_edges_and_empty_shapes():
    rng = np.random.default_rng(19)
    for cols in (1, 2, 7, 2047, 2048, 2049, 5000):
        assert_same_text(rng.normal(size=(3, cols)))
    assert engine(np.zeros((0, 4))) == b""
    assert engine(np.zeros((2, 0))) == b"\n\n"


def test_fallback_rows_keep_their_place():
    rng = np.random.default_rng(20)
    rows = rng.normal(size=(40, 9))
    rows[[0, 7, 8, 39], [3, 0, 8, 5]] = [np.nan, np.inf, -np.nan, -np.inf]
    assert_same_text(rows)


def test_no_runtime_warning_on_zeros_subnormals_and_non_finite_values():
    rows = np.array([[0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, np.nan, np.inf, -np.inf]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert engine(rows) == reference(rows)


def test_working_memory_is_bounded_by_the_row_block():
    rows = np.random.default_rng(21).normal(size=(2000, 3000))
    engine(rows[:2])  # the powers-of-ten table, built once
    tracemalloc.start()
    try:
        size = sum(len(block) for block in csv_blocks(rows))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert size > 100_000_000
    assert peak < 4_000_000, f"peak {peak / 1e6:.1f} MB while writing {size / 1e6:.0f} MB"


IMPORT_PROBE = """
import sys
import resistnet
import resistnet.cli
from resistnet import _csvtext
print(_csvtext._tables.cache_info().currsize == 0, "fractions" in sys.modules, "decimal" in sys.modules)
"""


def test_import_builds_no_table_and_loads_no_exact_arithmetic():
    src = os.path.dirname(os.path.dirname(resistnet.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], capture_output=True, text=True,
                          env=env, check=False)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["True", "False", "False"]
