"""Waveform container and the artifact file formats: float32 I/Q, CSV
tables and JSON."""

import numpy as np
import pytest

from wdlink.waveform import (ComplexWaveform, read_iq, read_table, write_iq,
                             write_json, write_table)


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
    write_table(path, "a,b,c\r\n", "{:d},{:.1f},{:.1e}\r\n", [7], [0.5], [-2.0])
    assert path.read_bytes() == b"a,b,c\r\n7,0.5,-2.0e+00\r\n"
    np.testing.assert_array_equal(read_table(path, 3), [[7.0, 0.5, -2.0]])


def test_read_table_rejects_wrong_column_count(tmp_path):
    path = tmp_path / "t.csv"
    write_table(path, "a,b,c\n", "{},{},{}\n", [1, 2], [3, 4], [5, 6])
    with pytest.raises(ValueError, match="expected 2 columns, found 3"):
        read_table(path, 2)
    # a two-row, one-column table is two rows, not one row of two columns
    write_table(path, "a\n", "{}\n", [1, 2])
    assert read_table(path, 1).shape == (2, 1)
    with pytest.raises(ValueError, match="expected 2 columns, found 1"):
        read_table(path, 2)


def test_write_json_format(tmp_path):
    path = tmp_path / "x.json"
    write_json(path, {"b": [1, 2.5], "a": None})
    assert path.read_text() == '{\n  "a": null,\n  "b": [\n    1,\n    2.5\n  ]\n}\n'
