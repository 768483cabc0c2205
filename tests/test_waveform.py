"""Waveform container and the artifact file formats: float32 I/Q, CSV
tables and JSON."""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from wdlink.waveform import (CHUNK, ComplexWaveform, Table, power_stats, read_iq,
                             read_table, sample_power, write_iq, write_json, write_table)


@pytest.fixture()
def wave():
    rng = np.random.default_rng(11)
    x = rng.standard_normal(1001) + 1j * rng.standard_normal(1001)
    return ComplexWaveform(x, sample_rate_hz=35e9, anchor_hz=92.5e9 + 0.1)


def test_iq_round_trip(tmp_path, wave):
    path = tmp_path / "w.iq"
    write_iq(path, wave)
    assert path.stat().st_size == 8 * len(wave)
    back = read_iq(path)
    assert back.sample_rate_hz == wave.sample_rate_hz
    assert back.anchor_hz == wave.anchor_hz
    expect = (wave.samples.real.astype(np.float32)
              + 1j * wave.samples.imag.astype(np.float32))
    np.testing.assert_array_equal(back.samples, expect)
    # a read-back waveform is already float32-exact, so it rewrites byte for byte
    write_iq(tmp_path / "again.iq", back)
    assert (tmp_path / "again.iq").read_bytes() == path.read_bytes()
    assert (tmp_path / "again.iq.hdr").read_text() == (tmp_path / "w.iq.hdr").read_text()


def test_iq_bytes_of_a_strided_waveform(tmp_path, wave):
    strided = wave.with_samples(wave.samples[::2])
    write_iq(tmp_path / "s.iq", strided)
    write_iq(tmp_path / "c.iq", wave.with_samples(wave.samples[::2].copy()))
    assert (tmp_path / "s.iq").read_bytes() == (tmp_path / "c.iq").read_bytes()
    assert np.array_equal(read_iq(tmp_path / "s.iq").samples,
                          read_iq(tmp_path / "c.iq").samples)


def test_complex64_waveform_round_trips(tmp_path, wave):
    single = wave.samples.astype(np.complex64)
    w = ComplexWaveform(single, sample_rate_hz=wave.sample_rate_hz)
    assert w.samples.dtype == np.complex128
    write_iq(tmp_path / "w.iq", w)
    assert (tmp_path / "w.iq").stat().st_size == 8 * len(w)
    np.testing.assert_array_equal(read_iq(tmp_path / "w.iq").samples, single)
    # complex128 samples are kept as they are, so the channel can work in place
    assert ComplexWaveform(wave.samples, 1e9).samples is wave.samples


def test_iq_bytes_across_chunk_boundaries(tmp_path):
    rng = np.random.default_rng(5)
    x = rng.standard_normal(2 * CHUNK + 1) + 1j * rng.standard_normal(2 * CHUNK + 1)
    write_iq(tmp_path / "w.iq", ComplexWaveform(x, 1e9))
    assert (tmp_path / "w.iq").read_bytes() == x.view(np.float64).astype(np.float32).tobytes()


def test_sample_power_is_the_squared_magnitude(wave):
    x = wave.samples
    assert np.array_equal(sample_power(x), np.abs(x) ** 2)
    assert wave.power == float(np.mean(np.abs(x) ** 2))


@pytest.mark.parametrize("n", [1, 7, 8, 9, 127, 128, 129,
                               CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1,
                               534_560, 1_598_480, 3_196_960])
def test_power_stats_is_the_whole_array_mean_and_max(n):
    """Bit for bit, not approximately: the frame's rms, the clip limit and
    the noise power all come from this mean.  The lengths straddle numpy's
    8-wide and 128-sample sum blocks, CHUNK, and the frames of 1024 and
    6144 symbols on D and W; the magnitudes spread over decades, so a sum
    in another order would round differently."""
    rng = np.random.default_rng(n)
    x = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * rng.lognormal(0.0, 3.0, n)
    p = np.abs(x) ** 2
    mean, peak = power_stats(x)
    assert (mean, peak) == (float(np.mean(p)), float(np.max(p)))
    assert ComplexWaveform(x, 1e9).power == mean


def test_power_stats_peak_anywhere():
    """The peak sample at either edge of each piece that is summed alone."""
    n = 2 * CHUNK + 1   # pieces [0, CHUNK), [CHUNK, 3 CHUNK / 2), [3 CHUNK / 2, n)
    x = np.exp(1j * np.linspace(0.0, 6.0, n))
    for at in (0, CHUNK - 1, CHUNK, 3 * CHUNK // 2 - 1, 3 * CHUNK // 2, n - 1):
        y = x.copy()
        y[at] = 3.0 - 4.0j
        assert power_stats(y)[1] == 25.0


def test_power_stats_lets_go_of_its_input():
    """The frame path drops each frame as soon as it is done with it, so the
    power of a frame must not keep it alive until the cycle collector runs."""
    x = np.ones(3 * CHUNK, dtype=complex)
    alive = weakref.ref(x)
    gc.disable()
    try:
        power_stats(x)
        del x
        assert alive() is None
    finally:
        gc.enable()


def test_power_stats_of_nothing_is_nan():
    assert all(np.isnan(power_stats(np.zeros(0, dtype=complex))))


def test_read_iq_rejects_short_file(tmp_path, wave):
    path = tmp_path / "w.iq"
    write_iq(path, wave)
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(ValueError, match="float32 values"):
        read_iq(path)


def test_read_iq_rejects_incomplete_header(tmp_path, wave):
    path = tmp_path / "w.iq"
    write_iq(path, wave)
    hdr = tmp_path / "w.iq.hdr"
    hdr.write_text("".join(line for line in hdr.read_text().splitlines(True)
                           if not line.startswith("anchor_hz")))
    with pytest.raises(ValueError, match="anchor_hz"):
        read_iq(path)


def test_table_round_trip_of_a_single_row(tmp_path):
    path = tmp_path / "t.csv"
    table = Table(("a", "b", "c"), ("d", ".1f", ".1e"), "\r\n")
    write_table(path, table, [7], [0.5], [-2.0])
    assert path.read_bytes() == b"a,b,c\r\n7,0.5,-2.0e+00\r\n"
    np.testing.assert_array_equal(read_table(path, table), [[7.0, 0.5, -2.0]])


def test_read_table_rejects_wrong_column_count(tmp_path):
    path = tmp_path / "t.csv"
    one, two = Table(("a",), ("",), "\n"), Table(("a", "b"), ("", ""), "\n")
    path.write_text("a,b\n1,3,5\n2,4,6\n")
    with pytest.raises(ValueError, match="expected 2 columns, found 3"):
        read_table(path, two)
    # a two-row, one-column table is two rows, not one row of two columns
    write_table(path, one, [1, 2])
    assert read_table(path, one).shape == (2, 1)
    path.write_text("a,b\n1\n2\n")
    with pytest.raises(ValueError, match="expected 2 columns, found 1"):
        read_table(path, two)


def test_read_table_takes_its_header_with_either_line_end(tmp_path):
    path = tmp_path / "t.csv"
    table = Table(("a", "b"), ("d", "d"), "\n")
    for text in ("a,b\n1,2\n", "a,b\r\n1,2\r\n"):
        path.write_text(text, newline="")
        np.testing.assert_array_equal(read_table(path, table), [[1.0, 2.0]])


@pytest.mark.parametrize("text", ["b,a\n1,2\n", "1,2\n3,4\n", "a,b,c\n1,2\n", "", "\n1,2\n"],
                         ids=["swapped", "headerless", "another-table", "empty", "blank"])
def test_read_table_refuses_a_line_one_that_is_not_its_header(tmp_path, text):
    path = tmp_path / "t.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=r"t\.csv: line 1: expected the header 'a,b'"):
        read_table(path, Table(("a", "b"), ("d", "d"), "\n"))


def test_write_table_refuses_columns_of_unequal_length(tmp_path):
    path = tmp_path / "t.csv"
    with pytest.raises(ValueError, match=r"\[3, 2\]"):
        write_table(path, Table(("a", "b"), ("d", "d"), "\n"), [1, 2, 3], [4, 5])
    assert not path.exists()


@pytest.mark.parametrize("n", [1, 3])
def test_write_table_refuses_a_column_count_other_than_its_tables(tmp_path, n):
    path = tmp_path / "t.csv"
    with pytest.raises(ValueError, match=f"expected 2 columns, got {n}"):
        write_table(path, Table(("a", "b"), ("d", "d"), "\n"), *[[1]] * n)
    assert not path.exists()


def _by_format(path, specs, *columns, end="\n"):
    """What ``write_table`` must write under a table of ``specs``: the
    header, then ``str.format`` row by row on the Python scalars the columns
    hold, with the template the specs make."""
    names = "hijk"[:len(specs)]
    write_table(path, Table(tuple(names), tuple(specs), end), *columns)
    row_format = ",".join("{:%s}" % spec for spec in specs) + end
    rows = zip(*(np.asarray(c).tolist() for c in columns))
    return path.read_bytes(), (",".join(names) + end
                               + "".join(row_format.format(*r) for r in rows)).encode()


FLOAT_SPECS = [".9e", ".6f", ".1f", ".1e"]


@settings(max_examples=60, deadline=None)
@given(x=hnp.arrays(np.float64, st.integers(0, 40), elements=st.floats(width=64)),
       k=hnp.arrays(np.int64, st.integers(0, 40), elements=st.integers(-2**63, 2**63 - 1)))
def test_table_bytes_are_str_format_bytes(tmp_path_factory, x, k):
    path = tmp_path_factory.mktemp("prop") / "t.csv"
    for spec in FLOAT_SPECS:
        got, want = _by_format(path, [spec], x)
        assert got == want, spec
    got, want = _by_format(path, ["d"], k, end="\r\n")
    assert got == want


def _adversarial():
    powers = 10.0 ** np.arange(-320, 309)
    ticks = np.concatenate([powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf)])
    # ties that are exact in binary: (2i+1)/4 at .1f, (2i+1)/128 at .6f,
    # 105, 115, ... at .1e and (2m+1)*500 with m of 10 digits at .9e; then
    # decimal ties at .9e that binary can only come near
    ties = np.concatenate([(np.arange(-400, 400) + 0.5) / 2,
                           (np.arange(-400, 400) + 0.5) / 64,
                           (np.arange(10, 100) + 0.5) * 10,
                           (np.arange(10 ** 9, 10 ** 9 + 400) + 0.5) * 1e3,
                           (np.arange(10 ** 9, 10 ** 9 + 400) + 0.5) * 1e-9])
    odd = [9.9999999995, 0.0000005, 0.0000015, -1e-9, 1e300, -1e300, 0.0, -0.0,
           np.nan, np.inf, -np.inf, 5e-324, -5e-324, 2.2250738585072014e-308,
           0.05, 0.15, 0.25, 0.35, 2.5, 99.95, 999999.95, 1e16, 2.0 ** 50, 2.0 ** 53]
    return np.concatenate([ticks, -ticks, ties, odd])


def test_table_bytes_on_adversarial_values(tmp_path):
    values = _adversarial()
    for spec in FLOAT_SPECS:
        got, want = _by_format(tmp_path / "t.csv", [spec, spec], values, -values, end="\r\n")
        assert got == want, spec
    assert _by_format(tmp_path / "t.csv", [".9e"], [9.9999999995])[0] == b"h\n9.999999999e+00\n"
    assert _by_format(tmp_path / "t.csv", [".6f"], [-1e-9])[0] == b"h\n-0.000000\n"
    ints = np.array([0, -1, 9, 10, -99, 100, 2 ** 63 - 1, -2 ** 63])
    got, want = _by_format(tmp_path / "t.csv", ["d", ""], ints, ints)
    assert got == want


def test_table_of_no_rows_and_of_one_row(tmp_path):
    for columns in ([[], []], [[1.5], [-7]]):
        got, want = _by_format(tmp_path / "t.csv", [".9e", "d"], *columns)
        assert got == want
    assert got == b"h,i\n1.500000000e+00,-7\n"


def test_write_json_format(tmp_path):
    path = tmp_path / "x.json"
    write_json(path, {"b": [1, 2.5], "a": None})
    assert path.read_text() == '{\n  "a": null,\n  "b": [\n    1,\n    2.5\n  ]\n}\n'
