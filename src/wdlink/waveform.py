"""Complex baseband waveform container and the artifact file formats.

A waveform is a uniformly sampled complex envelope.  ``anchor_hz`` records the
absolute RF frequency that baseband 0 Hz corresponds to, so spectra can always
be labelled in absolute terms no matter how many mix/shift stages the samples
have been through.

Every artifact is in one of three formats, all defined here: binary I/Q
(float32 pairs plus a ``key=value`` sidecar; :func:`write_iq`/:func:`read_iq`),
CSV tables (a header line, then rows from a ``str.format`` template that
carries its own ``\n`` or ``\r\n``; :func:`write_table`/:func:`read_table`),
and JSON (indent 2, sorted keys, trailing newline, replaced whole;
:func:`write_json`).
"""

from __future__ import annotations

import contextlib
import json
import os
from dataclasses import dataclass, replace

import numpy as np

_HEADER_FIELDS = ("sample_rate_hz", "anchor_hz", "n_samples", "dtype")


@dataclass(frozen=True)
class ComplexWaveform:
    """Uniformly sampled complex envelope anchored to an absolute frequency."""

    samples: np.ndarray
    sample_rate_hz: float
    anchor_hz: float = 0.0

    def __post_init__(self):
        if self.sample_rate_hz <= 0:
            raise ValueError("sample_rate_hz must be positive")
        s = np.asarray(self.samples)
        if s.ndim != 1:
            raise ValueError("samples must be a 1-D array")
        if not np.iscomplexobj(s):
            s = s.astype(np.complex128)
        object.__setattr__(self, "samples", s)

    def __len__(self):
        return len(self.samples)

    @property
    def duration_s(self) -> float:
        return len(self.samples) / self.sample_rate_hz

    @property
    def power(self) -> float:
        """Mean-square sample power."""
        return float(np.mean(np.abs(self.samples) ** 2))

    def with_samples(self, samples: np.ndarray) -> "ComplexWaveform":
        return replace(self, samples=samples)


def write_iq(path, w: ComplexWaveform) -> None:
    """Write interleaved float32 I/Q plus a text sidecar header.

    The sidecar (``<path>.hdr``) carries sample rate, anchor frequency,
    sample count and dtype, one ``key=value`` per line.
    """
    path = str(path)
    # a complex array viewed as float64 is already interleaved I/Q
    np.ascontiguousarray(w.samples).view(np.float64).astype(np.float32).tofile(path)
    with open(path + ".hdr", "w") as fh:
        fh.write(f"sample_rate_hz={w.sample_rate_hz!r}\n")
        fh.write(f"anchor_hz={w.anchor_hz!r}\n")
        fh.write(f"n_samples={len(w.samples)}\n")
        fh.write("dtype=float32_interleaved_iq\n")


def read_iq(path) -> ComplexWaveform:
    """Read a waveform written by :func:`write_iq`."""
    path = str(path)
    with open(path + ".hdr") as fh:
        header = dict(line.strip().partition("=")[::2] for line in fh if line.strip())
    missing = [k for k in _HEADER_FIELDS if k not in header]
    if missing:
        raise ValueError(f"sidecar header missing fields: {missing}")
    if header["dtype"] != "float32_interleaved_iq":
        raise ValueError(f"unsupported dtype {header['dtype']!r}")
    inter = np.fromfile(path, dtype=np.float32)
    n = int(header["n_samples"])
    if len(inter) != 2 * n:
        raise ValueError(f"expected {2 * n} float32 values, found {len(inter)}")
    samples = inter[0::2].astype(np.float64) + 1j * inter[1::2].astype(np.float64)
    return ComplexWaveform(
        samples=samples,
        sample_rate_hz=float(header["sample_rate_hz"]),
        anchor_hz=float(header["anchor_hz"]),
    )


def write_table(path, header: str, row_format: str, *columns) -> None:
    """Write ``header``, then ``row_format.format(*row)`` for each row of the
    equal-length ``columns``.  Both strings carry their own line end."""
    with open(path, "w", newline="") as fh:
        fh.write(header)
        # memoryviews hand out Python scalars one at a time, without a list copy
        fh.writelines(map(row_format.format,
                          *(memoryview(np.asarray(c)) for c in columns)))


def read_table(path, n_columns: int) -> np.ndarray:
    """Rows of a table written by :func:`write_table`, as floats of shape
    (n_rows, n_columns); the header line is skipped."""
    rows = np.genfromtxt(path, delimiter=",", skip_header=1, ndmin=2)
    if rows.shape[1] != n_columns:
        raise ValueError(f"{path}: expected {n_columns} columns, found {rows.shape[1]}")
    return rows


def write_json(path, obj) -> None:
    """JSON artifact: indent 2, sorted keys, trailing newline.  Written to a
    temporary file beside ``path`` and renamed over it, so an existing file
    is replaced whole or left as it was."""
    tmp = f"{path}.tmp-{os.getpid()}"
    try:
        with open(tmp, "w") as fh:
            json.dump(obj, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise
