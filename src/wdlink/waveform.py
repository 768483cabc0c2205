"""Complex baseband waveform container and the artifact file formats.

A waveform is a uniformly sampled complex envelope.  ``anchor_hz`` records the
absolute RF frequency that baseband 0 Hz corresponds to, so spectra can always
be labelled in absolute terms no matter how many mix/shift stages the samples
have been through.

Every artifact is in one of three formats, all defined here: binary I/Q
(float32 pairs plus a ``key=value`` sidecar; :func:`write_iq`/:func:`read_iq`),
CSV tables (a header line, then comma-separated rows, both as the artifact's
:class:`Table` below gives them; :func:`write_table`/:func:`read_table`),
and JSON (indent 2, sorted keys, trailing newline, replaced whole;
:func:`write_json`).
"""

from __future__ import annotations

import contextlib
import json
import os
import re
from dataclasses import dataclass, replace

import numpy as np

_HEADER_FIELDS = ("sample_rate_hz", "anchor_hz", "n_samples", "dtype")

CHUNK = 1 << 18   # samples or bins per step of the frame path's chunked loops


@dataclass(frozen=True)
class Table:
    """A CSV artifact's format: its column names, each column's ``format``
    spec, and the line end.  The header is the names joined by commas, and a
    row the cells joined the same way, each line ended by ``end``."""

    names: tuple
    specs: tuple
    end: str

    @property
    def header(self) -> str:
        return ",".join(self.names) + self.end


LOCK_CSV = Table(("time_s", "phase_error_rad", "freq_error_hz"), (".9e", ".9e", ".9e"), "\n")
PSD_CSV = Table(("freq_hz", "psd_db_hz"), (".9e", ".6f"), "\n")
METRICS_CSV = Table(("index", "freq_hz", "snr_db", "evm_rms"), ("d", ".6f", ".6f", ".9e"), "\r\n")
CONSTELLATION_CSV = Table(("re", "im"), (".9e", ".9e"), "\r\n")
BITLOAD_CSV = Table(("index", "freq_hz", "bits"), ("d", ".6f", "d"), "\r\n")
THRESHOLDS_CSV = Table(("order_bits", "min_snr_db"), ("d", ".6f"), "\r\n")


@dataclass(frozen=True)
class ComplexWaveform:
    """Uniformly sampled complex envelope anchored to an absolute frequency.
    The samples are stored as complex128, copied only when given another
    dtype."""

    samples: np.ndarray
    sample_rate_hz: float
    anchor_hz: float = 0.0

    def __post_init__(self):
        if self.sample_rate_hz <= 0:
            raise ValueError("sample_rate_hz must be positive")
        s = np.asarray(self.samples, dtype=np.complex128)
        if s.ndim != 1:
            raise ValueError("samples must be a 1-D array")
        object.__setattr__(self, "samples", s)

    def __len__(self):
        return len(self.samples)

    @property
    def duration_s(self) -> float:
        return len(self.samples) / self.sample_rate_hz

    @property
    def power(self) -> float:
        """Mean-square sample power, ``np.mean(sample_power(samples))`` bit
        for bit, taken one CHUNK at a time (:func:`power_stats`)."""
        return power_stats(self.samples)[0]

    def with_samples(self, samples: np.ndarray) -> "ComplexWaveform":
        return replace(self, samples=samples)


def sample_power(x: np.ndarray) -> np.ndarray:
    """|x|^2 of each sample, squared in place in ``np.abs``'s one buffer:
    equal to ``np.abs(x) ** 2`` without its second temporary."""
    p = np.abs(x)
    return np.square(p, out=p)


def power_stats(x: np.ndarray) -> tuple:
    """(mean, peak) of ``sample_power(x)`` as floats, equal bit for bit to
    ``np.mean`` and ``np.max`` of it, with no array longer than CHUNK.
    An empty ``x`` gives (nan, nan)."""
    if not len(x):
        return np.nan, np.nan
    total, peak = pairwise_sum_max(x, sample_power)
    return float(total / len(x)), float(peak)


def pairwise_sum_max(x: np.ndarray, values) -> tuple:
    """``np.sum`` and ``np.max`` of ``values(x)`` for an elementwise
    ``values`` (one new float64 array of its argument's length), with no
    array longer than CHUNK.  numpy sums a float64 array pairwise,
    splitting a length n over 128 at n2 = n // 2 less n2 % 8 and adding
    the two halves' sums; ``x`` is split the same way down to pieces of at
    most CHUNK samples, and ``values`` applied to each, so every partial
    sum rounds as in one sum over the whole."""
    n = len(x)
    if n <= CHUNK:
        v = values(x)
        return np.sum(v), np.max(v)
    n2 = n // 2
    n2 -= n2 % 8
    (s1, m1), (s2, m2) = pairwise_sum_max(x[:n2], values), pairwise_sum_max(x[n2:], values)
    return s1 + s2, np.maximum(m1, m2)


def write_iq(path, w: ComplexWaveform) -> None:
    """Write interleaved float32 I/Q plus a text sidecar header.

    The samples are converted CHUNK at a time into the open file, so no
    frame-sized float32 copy exists.  The sidecar (``<path>.hdr``) carries
    sample rate, anchor frequency, sample count and dtype, one
    ``key=value`` per line.
    """
    path = str(path)
    with open(path, "wb") as fh:
        for lo in range(0, len(w.samples), CHUNK):
            # a complex128 array viewed as float64 is already interleaved I/Q
            seg = np.ascontiguousarray(w.samples[lo:lo + CHUNK])
            seg.view(np.float64).astype(np.float32).tofile(fh)
    with open(path + ".hdr", "w") as fh:
        fh.write(f"sample_rate_hz={w.sample_rate_hz!r}\n")
        fh.write(f"anchor_hz={w.anchor_hz!r}\n")
        fh.write(f"n_samples={len(w.samples)}\n")
        fh.write("dtype=float32_interleaved_iq\n")


def read_iq(path) -> ComplexWaveform:
    """Read a waveform written by :func:`write_iq`."""
    path = str(path)
    header = check_iq(path)
    inter = np.fromfile(path, dtype=np.float32)
    samples = inter[0::2].astype(np.float64) + 1j * inter[1::2].astype(np.float64)
    return ComplexWaveform(
        samples=samples,
        sample_rate_hz=float(header["sample_rate_hz"]),
        anchor_hz=float(header["anchor_hz"]),
    )


def check_iq(path) -> dict:
    """The sidecar header of the I/Q file at ``path``, as a dict of
    strings, once it names every field and the file's size is that of its
    ``n_samples`` float32 pairs; the samples are not read.  Raises
    ValueError naming the file otherwise."""
    path = str(path)
    with open(path + ".hdr") as fh:
        header = dict(line.strip().partition("=")[::2] for line in fh if line.strip())
    missing = [k for k in _HEADER_FIELDS if k not in header]
    if missing:
        raise ValueError(f"{path}.hdr: sidecar header missing fields: {missing}")
    if header["dtype"] != "float32_interleaved_iq":
        raise ValueError(f"{path}.hdr: unsupported dtype {header['dtype']!r}")
    try:
        n = int(header["n_samples"])
    except ValueError:
        raise ValueError(f"{path}.hdr: n_samples {header['n_samples']!r} "
                         "is not an integer") from None
    size = os.path.getsize(path)
    if size != 8 * n:
        raise ValueError(f"{path}: expected {2 * n} float32 values ({8 * n} bytes), "
                         f"found {size} bytes")
    return header


def write_table(path, table: Table, *columns) -> None:
    """Write ``table``'s header, then row i of the equal-length 1-D
    ``columns``, one for each of the table's names, for each i: the cells
    ``format(v, spec)`` under the table's specs, joined by commas and ended
    by the table's line end, byte for byte.

    The rows are built a column at a time (:func:`_cells`) in one byte
    matrix, each cell zero padded to its column's width, and the padding is
    dropped in one pass.
    """
    if len(columns) != len(table.names):
        raise ValueError(f"{path}: expected {len(table.names)} columns, got {len(columns)}")
    columns = [np.asarray(c) for c in columns]
    if any(c.ndim != 1 for c in columns):
        raise ValueError("columns must be 1-D")
    lengths = [len(c) for c in columns]
    if len(set(lengths)) != 1:
        raise ValueError(f"columns must have one length, got lengths {lengths}")
    with open(path, "w", newline="") as fh:
        fh.write(table.header + (_rows(table, columns) if lengths[0] else ""))


def _rows(table: Table, columns: list) -> str:
    """The body of a table of at least one row."""
    n = len(columns[0])
    comma = np.full((n, 1), ord(","), np.uint8)
    end = np.frombuffer(table.end.encode(), np.uint8)
    pieces = [p for col, spec in zip(columns, table.specs) for p in (comma, _cells(col, spec))]
    rows = np.hstack(pieces[1:] + [np.broadcast_to(end, (n, len(end)))])
    return rows[rows != 0].tobytes().decode()


_FLOAT_SPEC = re.compile(r"\.(\d+)([ef])")
# exact powers of ten: a float64 times or over one of these is rounded once
_P10 = np.array([float(10 ** k) for k in range(23)])
# "00" to "99" as one uint16 each, in memory order, then the same with a
# leading zero as NUL, then with every zero digit before the first nonzero
# one as NUL (so entry 200 is two NULs)
_PAIRS = np.array([[divmod(i, 10) for i in range(100)]] * 3, dtype=np.uint8) + ord("0")
_PAIRS[1:, :10, 0] = 0
_PAIRS[2, 0, 1] = 0
_PAIRS = _PAIRS.view(np.uint16).ravel()
_MINUS, _DOT = ord("-"), ord(".")


def _cells(col: np.ndarray, spec: str) -> np.ndarray:
    """``format(v, spec)`` for each ``v`` of ``col`` (as the Python scalar
    that the array holds), as UTF-8 bytes in the rows of an (n, width)
    uint8 matrix, zero padded.

    ``.Ne``/``.Nf`` on floats are built from integer digits: one correctly
    rounded scaling by an exact power of ten, rounded half to even.  A value
    whose scaled result is a half-integer (:func:`_settled`), is out of
    range or is not finite goes to ``format`` itself, as does every value
    under any other spec.
    """
    n = len(col)
    done = np.zeros(n, dtype=bool)
    fast = np.zeros((n, 0), dtype=np.uint8)
    match = _FLOAT_SPEC.fullmatch(spec)
    # up to 14 decimals, every mantissa of .Ne stays below _settled's 2**52
    if match and col.dtype.kind == "f" and int(match[1]) <= 14:
        digits, kind = int(match[1]), match[2]
        x = col.astype(np.float64, copy=False)
        with np.errstate(all="ignore"):
            done, fast = (_scientific if kind == "e" else _positional)(x, digits)
    if done.all():
        return fast
    rest = np.flatnonzero(~done)
    text = [format(v, spec).encode() for v in col[rest].tolist()]
    lens = np.fromiter(map(len, text), dtype=np.intp, count=len(text))
    width = max(fast.shape[1], int(lens.max()))
    cells = np.zeros((n, width), dtype=np.uint8)
    cells[:, :fast.shape[1]] = fast
    slow = np.zeros((len(rest), width), dtype=np.uint8)
    slow[np.arange(width) < lens[:, None]] = np.frombuffer(b"".join(text), np.uint8)
    cells[rest] = slow
    return cells


def _settled(y: np.ndarray) -> np.ndarray:
    """Where ``np.rint(y)`` is the exact value's rounding, ``y`` being that
    value rounded once to a float.  That rounding is monotone and every
    half-integer below 2**52 is a float, so ``y`` lies on the exact value's
    side of each, or on it: a tie that only ``format`` can settle."""
    return (y < 2.0 ** 52) & (y - np.floor(y) != 0.5)


def _digits(m: np.ndarray, width: int, shown: int) -> np.ndarray:
    """Decimal digits of the uint64 ``m`` (all below 10**width), right
    aligned in an (n, width) uint8 ASCII matrix: the last ``shown`` digits
    always, the zeros before the first nonzero digit above them as NUL."""
    half = (width + 1) // 2
    pairs = np.empty((len(m), half), dtype=np.uint16)
    for j in range(half):
        q = m // 100
        # which table of _PAIRS: both digits shown, only the lower one, neither
        lead = 100 * min(max(2 * j + 2 - shown, 0), 2)
        index = m - q * 100
        if lead:
            index += (q == 0) * np.uint64(lead)
        pairs[:, half - 1 - j] = _PAIRS.take(index)
        m = q
    return pairs.view(np.uint8)[:, 2 * half - width:]


def _fixed(mag: np.ndarray, neg: np.ndarray, decimals: int) -> np.ndarray:
    """``mag`` (uint64) as a signed number with ``decimals`` digits after
    the point.  The sign stands first in the cell and the digits right
    aligned, so the NUL between them drops out with the padding."""
    width = max(len(str(int(mag.max()))), decimals + 1)
    digits = _digits(mag, width, decimals + 1)
    whole = width - decimals
    cells = np.zeros((len(mag), 1 + width + (decimals > 0)), dtype=np.uint8)
    cells[:, 0] = np.where(neg, _MINUS, 0)
    cells[:, 1:1 + whole] = digits[:, :whole]
    if decimals:
        cells[:, 1 + whole] = _DOT
        cells[:, 2 + whole:] = digits[:, whole:]
    return cells


def _positional(x: np.ndarray, decimals: int):
    """``.{decimals}f``: (rows done, their cells)."""
    y = np.abs(x) * _P10[decimals]
    done = _settled(y)
    mag = np.rint(np.where(done, y, 0.0)).astype(np.uint64)
    return done, _fixed(mag, np.signbit(x), decimals)


def _scientific(x: np.ndarray, decimals: int):
    """``.{decimals}e``: (rows done, their cells).  The mantissa is scaled
    into [10**decimals, 10**(decimals + 1)) by an exact power of ten, its
    decade fixed by one step after the log10 guess; the carry of a mantissa
    that rounds up to the next decade comes after the tie test."""
    a = np.abs(x)
    lo, hi = _P10[decimals], _P10[decimals + 1]
    zero = a == 0
    exp10 = np.where(zero | ~np.isfinite(a), 0.0, np.floor(np.log10(a)))

    def scaled(exp10):
        k = np.clip(decimals - exp10, -22, 22).astype(np.intp)
        return np.where(k >= 0, a * _P10[np.abs(k)], a / _P10[np.abs(k)])

    y = scaled(exp10)
    exp10 += (y >= hi).astype(float) - ((y < lo) & ~zero)
    y = scaled(exp10)
    done = (np.abs(decimals - exp10) <= 22) & (zero | ((y >= lo) & (y < hi))) & _settled(y)
    mag = np.rint(np.where(done, y, 0.0))
    carry = mag == hi
    mag[carry] = lo
    exp10[carry] += 1
    mag = mag.astype(np.uint64)
    e = np.where(done, exp10, 0.0).astype(np.int64)

    digits = _digits(mag, decimals + 1, decimals + 1)
    point = decimals > 0
    cells = np.zeros((len(x), decimals + 6 + point), dtype=np.uint8)
    cells[:, 0] = np.where(np.signbit(x), _MINUS, 0)
    cells[:, 1] = digits[:, 0]
    if point:
        cells[:, 2] = _DOT
        cells[:, 3:3 + decimals] = digits[:, 1:]
    cells[:, -4] = ord("e")
    cells[:, -3] = np.where(e < 0, _MINUS, ord("+"))
    cells[:, -2:] = _PAIRS.take(np.abs(e))[:, None].view(np.uint8)
    return done, cells


def read_table(path, table: Table) -> np.ndarray:
    """Rows of a CSV artifact written under ``table`` by :func:`write_table`,
    as floats of shape (n_rows, the table's column count).  Line 1 must be
    the table's column names (with LF or CRLF), or the file is refused naming
    it and line 1.  A blank or non-numeric cell, or a row of another length,
    is refused naming the file and the line; ``nan`` and ``inf`` read back
    as ``format`` writes them."""
    n_columns, names = len(table.names), ",".join(table.names)
    with open(path, errors="replace") as fh:
        first = fh.readline().rstrip("\r\n")
    if first != names:
        raise ValueError(f"{path}: line 1: expected the header {names!r}, found {first!r}")
    try:
        rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except ValueError as e:
        with open(path, errors="replace") as fh:
            lines = list(enumerate(fh, 1))[1:]
        raise ValueError(f"{path}: {refused_line(lines, n_columns, e)}") from None
    if rows.shape[1] != n_columns:
        raise ValueError(f"{path}: expected {n_columns} columns, found {rows.shape[1]}")
    return rows


def refused_line(numbered_lines, n_columns: int, error: ValueError) -> str:
    """Why ``np.loadtxt`` refused these (1-based line number, text) rows, as
    the first line that does not hold ``n_columns`` numbers; ``error``'s own
    text when no line is found.  Mirrors loadtxt: text from ``#`` on is a
    comment, and a line empty without it is skipped."""
    for number, line in numbered_lines:
        cells = line.rstrip("\r\n").split("#")[0]
        if not cells:
            continue
        cells = cells.split(",")
        if len(cells) != n_columns:
            return f"line {number}: expected {n_columns} cells, found {len(cells)}"
        for column, cell in enumerate(cells, 1):
            try:
                float(cell)
            except ValueError:
                return f"line {number}, cell {column}: {cell.strip()!r} is not a number"
    return str(error)


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
