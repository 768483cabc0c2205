"""Golden bytes of every CSV table artifact.

The other tests read tables back as numbers; these pin the text itself:
header, column formats, line ends, NaN rows, the PSD floor and the lock
export's stride.  A format change must show up here as a deliberate edit.
"""

from dataclasses import replace

import numpy as np

from wdlink import opll
from wdlink.bandplan import BandPlan
from wdlink.bitload import BitLoadMap, write_bitload_csv, write_threshold_csv
from wdlink.noise import write_psd_csv
from wdlink.ofdm_rx import SubcarrierMetrics, write_constellation_csv, write_metrics_csv
from wdlink.opll import LockResult, write_lock_csv


def test_psd_csv_bytes(tmp_path):
    path = tmp_path / "psd.csv"
    write_psd_csv(path, np.array([-1.5e9, 0.0, 2.5e10]), np.array([1e-3, 0.0, 2.0]))
    assert path.read_bytes() == (
        b"freq_hz,psd_db_hz\n"
        b"-1.500000000e+09,-30.000000\n"
        b"0.000000000e+00,-400.000000\n"
        b"2.500000000e+10,3.010300\n")


def _lock_result(loop, n):
    """A LockResult keeping the frequency error at the rows lock.csv writes."""
    cfg = replace(loop, sim_rate_hz=1e3, duration_s=n / 1e3)
    phases = np.array([0.0, -0.5, 1.25e-7, 2.0, -3.5, 4.0, -6.25])[:n]
    freq = np.array([1e6, -2.5, 0.0, 7.0, 1e-9, -8.0, 3.0])[:n]
    return LockResult(locked=True, theta=phases, freq_error_rows=freq[::opll._csv_stride(n)],
                      freq_error_tail=freq[int(0.9 * n):], cycle_slips=0, config=cfg)


def test_lock_csv_bytes_with_stride(w_band, tmp_path, monkeypatch):
    path = tmp_path / "lock.csv"
    monkeypatch.setattr(opll, "LOCK_CSV_MAX_ROWS", 2)   # stride n // 2
    # seven samples at stride 3: rows 0, 3 and the last sample, 6
    write_lock_csv(path, _lock_result(w_band.loop, 7))
    assert path.read_bytes() == (
        b"time_s,phase_error_rad,freq_error_hz\n"
        b"0.000000000e+00,0.000000000e+00,1.000000000e+06\n"
        b"3.000000000e-03,2.000000000e+00,7.000000000e+00\n"
        b"6.000000000e-03,-6.250000000e+00,3.000000000e+00\n")
    # six samples at stride 3: the last row is sample 3, not a partial stride
    write_lock_csv(path, _lock_result(w_band.loop, 6))
    assert path.read_bytes().splitlines()[-1] == (
        b"3.000000000e-03,2.000000000e+00,7.000000000e+00")
    # three samples at stride 1
    write_lock_csv(path, _lock_result(w_band.loop, 3))
    assert path.read_bytes() == (
        b"time_s,phase_error_rad,freq_error_hz\n"
        b"0.000000000e+00,0.000000000e+00,1.000000000e+06\n"
        b"1.000000000e-03,-5.000000000e-01,-2.500000000e+00\n"
        b"2.000000000e-03,1.250000000e-07,0.000000000e+00\n")


def test_metrics_csv_bytes_with_dead_subcarrier(tmp_path):
    path = tmp_path / "metrics.csv"
    m = SubcarrierMetrics(indices=np.array([3, 10]),
                          freq_hz=np.array([9.25e10, -1.5e3]),
                          snr_db=np.array([12.345678912, np.nan]),
                          evm_rms=np.array([0.25, np.nan]))
    write_metrics_csv(path, m)
    assert path.read_bytes() == (
        b"index,freq_hz,snr_db,evm_rms\r\n"
        b"3,92500000000.000000,12.345679,2.500000000e-01\r\n"
        b"10,-1500.000000,nan,nan\r\n")


def test_constellation_csv_bytes(tmp_path):
    path = tmp_path / "const.csv"
    write_constellation_csv(path, np.array([1 + 2j, -0.5 - 0.25j]))
    assert path.read_bytes() == (
        b"re,im\r\n"
        b"1.000000000e+00,2.000000000e+00\r\n"
        b"-5.000000000e-01,-2.500000000e-01\r\n")


def test_bitload_csv_bytes(tmp_path):
    path = tmp_path / "bitload.csv"
    plan = BandPlan(name="T", center_hz=100e9, n_subcarriers=4, spacing_hz=1.5e9)
    write_bitload_csv(path, BitLoadMap(bits=np.array([0, 1, 4, 6])), plan)
    assert path.read_bytes() == (
        b"index,freq_hz,bits\r\n"
        b"0,97750000000.000000,0\r\n"
        b"1,99250000000.000000,1\r\n"
        b"2,100750000000.000000,4\r\n"
        b"3,102250000000.000000,6\r\n")


def test_threshold_csv_bytes(fec, tmp_path):
    path = tmp_path / "thresholds.csv"
    write_threshold_csv(path, fec)
    assert path.read_bytes() == (
        b"order_bits,min_snr_db\r\n"
        b"1,3.071281\r\n"
        b"2,6.081581\r\n"
        b"3,10.511801\r\n"
        b"4,12.522075\r\n"
        b"5,15.405400\r\n"
        b"6,18.220093\r\n")
