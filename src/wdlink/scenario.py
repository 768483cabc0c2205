"""Scenario files: the single configuration format driving every CLI run.

A scenario is one JSON document (its ``schema_version`` checked at load)
naming the lasers, the servo, the band plans, the transmit shapes, the
channel settings, and an explicit seed for every random stage.  Loading
resolves each band into exactly the inputs its stages take (laser pair,
servo, seeds, converter), so a bad file fails before any stage runs, with
the JSON path of the offending field in the error.  A seed override is
applied here too (``Scenario.with_seed_override``).

Each rule has one owner.  The loader checks the document's shape: fields,
JSON types (every leaf, an inline plan's and the seeds' too, goes through
``_get``) and references to lasers and built-in plans and masks.
A rule on a value belongs to the type or function that the value feeds
(``TxConfig``, ``pi_gains_for``, ``check_if_window``, ...); the loader calls
it inside ``_at(path)``, the one place that turns a ``ValueError`` into a
``ScenarioError`` at a JSON path.

The bundled ``data/default_scenario.json`` is the only copy of the default
link (lasers, servo, frames, FEC); no code restates its values.
"""

from __future__ import annotations

import json
import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path

import numpy as np

from .bandplan import BandPlan, detected_indices, make_default_plans
from .bitload import FecProfile
from .channel import check_if_window, default_masks, load_mask_csv
from .noise import LaserSpec, psd_segment_length, snr_ratio
from .ofdm_rx import check_metric_symbols, judged_indices
from .ofdm_tx import TxConfig, cp_length, frame_rate_hz, frame_samples, pilot_indices
from .opll import (LOCK_PSD_RBW_HZ, LoopConfig, loop_samples, pi_gains_for,
                   residual_samples)

SCHEMA_VERSION = 1
SHOWN_CHARS = 40   # longest refused value a message writes out whole


class ScenarioError(ValueError):
    """Invalid scenario content; message starts with the JSON path."""

    def __init__(self, path: str, msg: str):
        super().__init__(f"{path}: {msg}")
        self.json_path = path


@contextmanager
def _at(path: str, prefix: str = ""):
    """Raise a check's ``ValueError`` or ``OverflowError`` (or the ``OSError``
    of reading a file the scenario names) as a ``ScenarioError`` at ``path``,
    the message after ``prefix``.  A ``ScenarioError`` passes as it is."""
    try:
        yield
    except ScenarioError:
        raise
    except (OSError, OverflowError, ValueError) as e:
        raise ScenarioError(path, prefix + str(e)) from None


def _finite_number(v) -> bool:
    """JSON numbers other than booleans, NaN and +-Infinity that a float can
    hold (compared exactly: an integer past the largest float is refused)."""
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and abs(v) <= sys.float_info.max)


def _shown(v) -> str:
    """A refused value as a message names it: its repr, or, when that is
    longer than SHOWN_CHARS, its type and size ("int of 401 digits")."""
    text = repr(v)
    if len(text) <= SHOWN_CHARS:
        return text
    if isinstance(v, int):
        return f"{type(v).__name__} of {len(text.lstrip('-'))} digits"
    return f"{type(v).__name__} of {len(text)} characters"


def _get(d: dict, key: str, path: str, kind=None, required=True, default=None):
    if not isinstance(d, dict):
        raise ScenarioError(path, "expected an object")
    if key not in d:
        if required:
            raise ScenarioError(f"{path}.{key}", "missing required field")
        return default
    v = d[key]
    if kind is not None:
        if kind is float:
            if not _finite_number(v):
                raise ScenarioError(f"{path}.{key}", f"expected a finite number, got {_shown(v)}")
            v = float(v)
        elif kind is int:
            if isinstance(v, bool) or not isinstance(v, int):
                raise ScenarioError(f"{path}.{key}", f"expected an integer, got {type(v).__name__}")
        elif not isinstance(v, kind):
            raise ScenarioError(f"{path}.{key}", f"expected {kind.__name__}, got {type(v).__name__}")
    return v


@dataclass(frozen=True)
class BandScenario:
    """One band's run inputs, resolved at load."""

    name: str
    plan: BandPlan
    master: LaserSpec
    slave: LaserSpec
    loop: LoopConfig
    lock_seed: int
    noise_seed: int
    tx: TxConfig
    mask: tuple
    target_snr_db: float
    downconvert: dict | None   # channel.dband_downconvert's keyword arguments after the mask

    def check_psd_rbw(self, rbw_hz: float, records) -> None:
        """Raise ValueError, naming the band and record, when a PSD at
        ``rbw_hz`` does not fit one of ``records`` (``noise.psd_segment_length``):
        "tx" is the transmitted frame, "rx" the received one (decimated to a
        sample per subcarrier on a downconverted band), "lock" the lock
        loop's record."""
        rate, os_ = frame_rate_hz(self.plan, self.tx), self.tx.oversample
        decimate = 1 if self.downconvert is None else self.downconvert["decimate"]
        sizes = {"tx": (rate, frame_samples(self.plan, self.tx, os_)),
                 "rx": (rate / decimate, frame_samples(self.plan, self.tx, os_ // decimate))}
        if "lock" in records:   # loop_samples solves for the unity gain: only on demand
            sizes["lock"] = (self.loop.sim_rate_hz, loop_samples(self.loop))
        for record in records:
            try:
                psd_segment_length(*sizes[record], rbw_hz)
            except ValueError as e:
                raise ValueError(f"band {self.name} {record} record: {e}") from None


@dataclass(frozen=True)
class Scenario:
    description: str
    fec: FecProfile
    bands: tuple
    psd_rbw_hz: float

    def band(self, name: str) -> BandScenario:
        for b in self.bands:
            if b.name == name:
                return b
        raise KeyError(f"no band named {name!r} in scenario")

    def with_seed_override(self, seed: int) -> "Scenario":
        """A copy whose lock and noise seeds all come from one master seed."""
        state = np.random.SeedSequence(seed).generate_state(2 * len(self.bands))
        return replace(self, bands=tuple(
            replace(b, lock_seed=int(state[2 * i]), noise_seed=int(state[2 * i + 1]))
            for i, b in enumerate(self.bands)))


def _parse_plan(value, path: str) -> BandPlan:
    builtins = make_default_plans()
    if isinstance(value, str):
        name = value.removeprefix("builtin:")
        if value.startswith("builtin:") and name in builtins:
            return builtins[name]
        raise ScenarioError(path, f"unknown plan reference {value!r}")
    if isinstance(value, dict):
        nulls = _get(value, "null_indices", path, list, required=False, default=())
        if not all(isinstance(i, int) and not isinstance(i, bool) for i in nulls):
            raise ScenarioError(f"{path}.null_indices", "expected a list of integers")
        with _at(path, "invalid plan: "):
            return BandPlan(name=_get(value, "name", path, str),
                            center_hz=_get(value, "center_hz", path, float),
                            n_subcarriers=_get(value, "n_subcarriers", path, int),
                            spacing_hz=_get(value, "spacing_hz", path, float),
                            null_indices=frozenset(nulls),
                            detect_window_hz=_window(value, "detect_window_hz", path))
    raise ScenarioError(path, "plan must be 'builtin:<name>' or an object")


def _parse_mask(value, path: str, base_dir: Path) -> tuple:
    builtins = dict(zip(("builtin:W", "builtin:D"), default_masks()))
    if isinstance(value, str):
        if value in builtins:
            return builtins[value]
        raise ScenarioError(path, f"unknown mask reference {value!r}")
    if isinstance(value, dict):
        csv_path = _get(value, "csv", path, str)
        with _at(path, "mask CSV: "):
            return load_mask_csv(base_dir / csv_path)
    raise ScenarioError(path, "mask must be 'builtin:W', 'builtin:D', or {'csv': path}")


def _parse_tx(d: dict, path: str) -> TxConfig:
    kinds = dict(bits_per_subcarrier=int, n_symbols=int, n_training=int, n_pilots=int,
                 cp_fraction=float, clip_ratio_db=float, oversample=int)
    kwargs = {key: _get(d, key, path, kind) for key, kind in kinds.items()}
    with _at(path):   # the PRBS register is the only part with a default
        return TxConfig(**kwargs,
                        prbs_order=_get(d, "prbs_order", path, int, required=False, default=17),
                        prbs_seed_state=_get(d, "prbs_seed_state", path, int, required=False,
                                             default=0x1FFFF))


def _window(d: dict, key: str, path: str) -> tuple:
    """``d[key]``, a ``[low_hz, high_hz]`` of finite numbers, as floats."""
    window = _get(d, key, path, list)
    if len(window) != 2 or not all(_finite_number(x) for x in window):
        raise ScenarioError(f"{path}.{key}", "expected finite [low_hz, high_hz]")
    return float(window[0]), float(window[1])


def _seed(seeds_d: dict, key: str) -> int:
    seed = _get(seeds_d, key, "$.seeds", int)
    # numpy's rule, for the stages seed their generators with it; checked
    # here so that loading does not import numpy.random
    if seed < 0:
        raise ScenarioError(f"$.seeds.{key}", "expected non-negative integer")
    return seed


def _parse_downconvert(d, path: str):
    if d is None:
        return None
    return {"seed_lo_hz": _get(d, "seed_lo_hz", path, float),
            "mult": _get(d, "mult", path, int),
            "if_window_hz": _window(d, "if_window_hz", path)}


def scenario_from_dict(doc: dict, base_dir: Path) -> Scenario:
    if not isinstance(doc, dict):
        raise ScenarioError("$", "scenario root must be an object")
    version = _get(doc, "schema_version", "$", int)
    if version != SCHEMA_VERSION:
        raise ScenarioError("$.schema_version",
                            f"unsupported version {version} (expected {SCHEMA_VERSION})")
    description = _get(doc, "description", "$", str, required=False, default="")

    fec_d = _get(doc, "fec", "$", dict)
    with _at("$.fec"):
        fec = FecProfile(
            overhead_fraction=_get(fec_d, "overhead_fraction", "$.fec", float),
            ber_threshold=_get(fec_d, "ber_threshold", "$.fec", float),
        )

    lasers_d = _get(doc, "lasers", "$", dict)
    if not lasers_d:
        raise ScenarioError("$.lasers", "at least one laser required")
    lasers = {}
    for label, ld in lasers_d.items():
        path = f"$.lasers.{label}"
        lw, off = (_get(ld, key, path, float) for key in ("linewidth_hz", "offset_hz"))
        with _at(f"{path}.linewidth_hz"):
            lasers[label] = LaserSpec(label=label, linewidth_hz=lw, offset_hz=off)

    lock_d = _get(doc, "lock", "$", dict)
    lock = {key: _get(lock_d, key, "$.lock", float)
            for key in ("sim_rate_hz", "duration_s", "actuator_bw_hz",
                        "unity_gain_hz", "pi_zero_hz", "initial_freq_error_hz")}
    with _at("$.lock"):
        kp, ki = pi_gains_for(lock.pop("unity_gain_hz"), lock.pop("pi_zero_hz"),
                              lock["actuator_bw_hz"])
        servo = LoopConfig(target_offset_hz=0.0, kp=kp, ki=ki, **lock)
        # simulate_lock's checks; a band's copy differs only in the target
        # offset, which they do not read
        n_lock = loop_samples(servo)
    with _at("$.lock.duration_s", "lock record: "):
        psd_segment_length(servo.sim_rate_hz, n_lock, LOCK_PSD_RBW_HZ)
    seeds_d = _get(doc, "seeds", "$", dict)

    bands_l = _get(doc, "bands", "$", list)
    if not bands_l:
        raise ScenarioError("$.bands", "at least one band required")
    bands = []
    names = set()
    for i, bd in enumerate(bands_l):
        path = f"$.bands[{i}]"
        name = _get(bd, "name", path, str)
        if name in names:
            raise ScenarioError(f"{path}.name", f"duplicate band name {name!r}")
        names.add(name)
        for role in ("master", "slave"):
            if _get(bd, role, path, str) not in lasers:
                raise ScenarioError(f"{path}.{role}", f"unknown laser {bd[role]!r}")
        master, slave = lasers[bd["master"]], lasers[bd["slave"]]
        plan = _parse_plan(_get(bd, "plan", path), f"{path}.plan")
        tx = _parse_tx(_get(bd, "tx", path, dict), f"{path}.tx")
        with _at(f"{path}.tx.n_pilots"):
            judged_indices(plan, pilot_indices(plan, tx.n_pilots))
        with _at(f"{path}.tx.n_symbols"):
            check_metric_symbols(tx.n_symbols)
            duration_s = frame_samples(plan, tx, tx.oversample) / frame_rate_hz(plan, tx)
        with _at("$.lock.duration_s", f"band {name}: "):   # the frame rides on the lock's tail
            residual_samples(servo, n_lock, duration_s)
        ch = _get(bd, "channel", path, dict)
        mask = _parse_mask(_get(ch, "mask", f"{path}.channel"), f"{path}.channel.mask",
                           base_dir)
        snr = _get(ch, "target_snr_db", f"{path}.channel", required=False)
        if snr is None:
            snr = math.inf  # noiseless
        elif not _finite_number(snr):
            raise ScenarioError(f"{path}.channel.target_snr_db", "expected a finite number or null")
        dc = _parse_downconvert(_get(bd, "downconvert", path, required=False),
                                f"{path}.downconvert")
        if dc is not None:
            # the converter decimates the frame, as build_frame samples it,
            # back to one sample per subcarrier
            dc["decimate"] = tx.oversample
            with _at(f"{path}.downconvert"):
                check_if_window(plan.center_hz, frame_rate_hz(plan, tx), **dc)
            with _at(f"{path}.tx.cp_fraction"):
                cp_length(plan, tx, tx.oversample // dc["decimate"])
        if snr != math.inf:
            # add_awgn's record: the frame, decimated on a downconverted band
            rx_rate_hz = frame_rate_hz(plan, tx) / (1 if dc is None else dc["decimate"])
            with _at(f"{path}.channel.target_snr_db"):
                snr_ratio(snr, rx_rate_hz / (len(detected_indices(plan)) * plan.spacing_hz))
        bands.append(BandScenario(
            name=name, plan=plan, master=master, slave=slave,
            loop=replace(servo, target_offset_hz=slave.offset_hz - master.offset_hz),
            lock_seed=_seed(seeds_d, f"lock_{name}"),
            noise_seed=_seed(seeds_d, f"noise_{name}"),
            tx=tx, mask=mask, target_snr_db=float(snr), downconvert=dc,
        ))

    psd_rbw = _get(doc, "psd_rbw_hz", "$", float, required=False, default=100e6)
    with _at("$.psd_rbw_hz"):
        for band in bands:
            band.check_psd_rbw(psd_rbw, ("tx", "rx"))

    return Scenario(description=description, fec=fec, bands=tuple(bands),
                    psd_rbw_hz=psd_rbw)


def load_scenario(path) -> Scenario:
    p = Path(path)
    text = p.read_text()   # an OSError here is the CLI's I/O error, not a bad scenario
    with _at(str(p), "invalid JSON: "):
        doc = json.loads(text)
    return scenario_from_dict(doc, p.parent)


def default_scenario_path() -> Path:
    return Path(resources.files("wdlink").joinpath("data/default_scenario.json"))
