"""Scenario files: the single configuration format driving every CLI run.

A scenario is one JSON document (versioned via ``schema_version``) naming the
lasers, the servo, the band plans, the transmit shapes, the channel settings,
and an explicit seed for every random stage.  Loading resolves each band into
exactly the inputs its stages take (laser pair, servo, seeds, converter) and
runs their checks, so a bad file fails before any stage runs, with the JSON
path of the offending field in the error.  A seed override is applied here too
(``Scenario.with_seed_override``).

The bundled ``data/default_scenario.json`` is the only copy of the default
link (lasers, servo, frames, FEC); no code restates its values.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path

import numpy as np

from .bandplan import BandPlan, make_default_plans
from .bitload import FecProfile
from .channel import check_if_window, default_masks, load_mask_csv
from .noise import LaserSpec, psd_segment_length
from .ofdm_rx import MIN_METRIC_SYMBOLS
from .ofdm_tx import (SUPPORTED_ORDERS, TxConfig, cp_length, pilot_indices,
                      resampled_cp_length)
from .opll import LOCK_PSD_RBW_HZ, LoopConfig, loop_samples, pi_gains_for

SCHEMA_VERSION = 1


class ScenarioError(ValueError):
    """Invalid scenario content; message starts with the JSON path."""

    def __init__(self, path: str, msg: str):
        super().__init__(f"{path}: {msg}")
        self.json_path = path


def _finite_number(v) -> bool:
    """JSON numbers other than booleans, NaN and +-Infinity."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


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
                raise ScenarioError(f"{path}.{key}", f"expected a finite number, got {v!r}")
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
    mask_source: str
    target_snr_db: float
    downconvert: dict | None   # keyword arguments of channel.dband_downconvert

    def check_psd_rbw(self, rbw_hz: float, records) -> None:
        """Raise ValueError, naming the band and record, when a PSD at
        ``rbw_hz`` does not fit one of ``records`` (``noise.psd_segment_length``):
        "tx" is the transmitted frame, "rx" the received one (decimated to a
        sample per subcarrier on a downconverted band), "lock" the lock
        loop's record."""
        n_sc, oversample = self.plan.n_subcarriers, self.tx.oversample
        rate = self.plan.spacing_hz * (n_sc * oversample)
        n = (self.tx.n_training + self.tx.n_symbols) * (
            n_sc * oversample + cp_length(n_sc, oversample, self.tx.cp_fraction))
        decimate = oversample if self.downconvert is not None else 1
        sizes = {"tx": (rate, n), "rx": (rate / decimate, n // decimate)}
        if "lock" in records:   # loop_samples solves for the unity gain: only on demand
            sizes["lock"] = (self.loop.sim_rate_hz, loop_samples(self.loop))
        for record in records:
            try:
                psd_segment_length(*sizes[record], rbw_hz)
            except ValueError as e:
                raise ValueError(f"band {self.name} {record} record: {e}") from None


@dataclass(frozen=True)
class Scenario:
    schema_version: int
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


def _parse_laser(lasers: dict, label: str, path: str) -> LaserSpec:
    if label not in lasers:
        raise ScenarioError(path, f"unknown laser {label!r}")
    return lasers[label]


def _parse_plan(value, path: str) -> BandPlan:
    builtins = make_default_plans()
    if isinstance(value, str):
        name = value.removeprefix("builtin:")
        if value.startswith("builtin:") and name in builtins:
            return builtins[name]
        raise ScenarioError(path, f"unknown plan reference {value!r}")
    if isinstance(value, dict):
        try:
            return BandPlan.from_dict(value)
        except (KeyError, TypeError, ValueError) as e:
            raise ScenarioError(path, f"invalid plan: {e}") from None
    raise ScenarioError(path, "plan must be 'builtin:<name>' or an object")


def _parse_mask(value, path: str, base_dir: Path) -> tuple:
    w_mask, d_mask = default_masks()
    if isinstance(value, str):
        if value == "builtin:W":
            return w_mask, value
        if value == "builtin:D":
            return d_mask, value
        raise ScenarioError(path, f"unknown mask reference {value!r}")
    if isinstance(value, dict) and "csv" in value:
        csv_path = base_dir / str(value["csv"])
        try:
            return load_mask_csv(csv_path), f"csv:{value['csv']}"
        except OSError as e:
            raise ScenarioError(path, f"cannot read mask CSV: {e}") from None
        except ValueError as e:
            raise ScenarioError(path, f"bad mask CSV: {e}") from None
    raise ScenarioError(path, "mask must be 'builtin:W', 'builtin:D', or {'csv': path}")


def _parse_tx(d: dict, path: str) -> TxConfig:
    bits = _get(d, "bits_per_subcarrier", path, int)
    if bits not in SUPPORTED_ORDERS:
        raise ScenarioError(f"{path}.bits_per_subcarrier",
                            f"must be one of {sorted(SUPPORTED_ORDERS)}")
    kwargs = dict(
        bits_per_subcarrier=bits,
        n_symbols=_get(d, "n_symbols", path, int),
        n_training=_get(d, "n_training", path, int),
        n_pilots=_get(d, "n_pilots", path, int),
        cp_fraction=_get(d, "cp_fraction", path, float),
        clip_ratio_db=_get(d, "clip_ratio_db", path, float),
        oversample=_get(d, "oversample", path, int),
        prbs_order=_get(d, "prbs_order", path, int, required=False, default=17),
        prbs_seed_state=_get(d, "prbs_seed_state", path, int, required=False,
                             default=0x1FFFF),
    )
    try:
        return TxConfig(**kwargs)
    except ValueError as e:
        raise ScenarioError(path, str(e)) from None


def _parse_downconvert(d, path: str):
    if d is None:
        return None
    lo = _get(d, "seed_lo_hz", path, float)
    mult = _get(d, "mult", path, int)
    window = _get(d, "if_window_hz", path, list)
    if len(window) != 2 or not all(_finite_number(x) for x in window):
        raise ScenarioError(f"{path}.if_window_hz", "expected finite [low_hz, high_hz]")
    low, high = float(window[0]), float(window[1])
    if lo <= 0 or mult < 1 or low < 0:   # the window's order is check_if_window's
        raise ScenarioError(path, "downconvert values out of range")
    return {"seed_lo_hz": lo, "mult": mult, "if_window_hz": (low, high)}


def scenario_from_dict(doc: dict, base_dir: Path) -> Scenario:
    if not isinstance(doc, dict):
        raise ScenarioError("$", "scenario root must be an object")
    version = _get(doc, "schema_version", "$", int)
    if version != SCHEMA_VERSION:
        raise ScenarioError("$.schema_version",
                            f"unsupported version {version} (expected {SCHEMA_VERSION})")
    description = _get(doc, "description", "$", str, required=False, default="")

    fec_d = _get(doc, "fec", "$", dict)
    try:
        fec = FecProfile(
            overhead_fraction=_get(fec_d, "overhead_fraction", "$.fec", float),
            ber_threshold=_get(fec_d, "ber_threshold", "$.fec", float),
        )
    except ValueError as e:
        raise ScenarioError("$.fec", str(e)) from None

    lasers_d = _get(doc, "lasers", "$", dict)
    if not lasers_d:
        raise ScenarioError("$.lasers", "at least one laser required")
    lasers = {}
    for label, ld in lasers_d.items():
        path = f"$.lasers.{label}"
        lw = _get(ld, "linewidth_hz", path, float)
        off = _get(ld, "offset_hz", path, float)
        if lw < 0:
            raise ScenarioError(f"{path}.linewidth_hz", "must be non-negative")
        lasers[label] = LaserSpec(label=label, linewidth_hz=lw, offset_hz=off)

    lock_d = _get(doc, "lock", "$", dict)
    lock = {key: _get(lock_d, key, "$.lock", float)
            for key in ("sim_rate_hz", "duration_s", "actuator_bw_hz",
                        "unity_gain_hz", "pi_zero_hz", "initial_freq_error_hz")}
    try:
        kp, ki = pi_gains_for(lock.pop("unity_gain_hz"), lock.pop("pi_zero_hz"),
                              lock["actuator_bw_hz"])
        servo = LoopConfig(target_offset_hz=0.0, kp=kp, ki=ki, **lock)
        # simulate_lock's checks; a band's copy differs only in the target
        # offset, which they do not read
        n_lock = loop_samples(servo)
    except ValueError as e:
        raise ScenarioError("$.lock", str(e)) from None
    try:
        psd_segment_length(servo.sim_rate_hz, n_lock, LOCK_PSD_RBW_HZ)
    except ValueError as e:
        raise ScenarioError("$.lock.duration_s", f"lock record: {e}") from None
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
        master, slave = (_parse_laser(lasers, _get(bd, role, path, str), f"{path}.{role}")
                         for role in ("master", "slave"))
        plan = _parse_plan(_get(bd, "plan", path), f"{path}.plan")
        tx = _parse_tx(_get(bd, "tx", path, dict), f"{path}.tx")
        try:
            pilot_indices(plan, tx.n_pilots)
        except ValueError as e:
            raise ScenarioError(f"{path}.tx.n_pilots", str(e)) from None
        if tx.n_symbols < MIN_METRIC_SYMBOLS:
            raise ScenarioError(f"{path}.tx.n_symbols",
                                f"need at least {MIN_METRIC_SYMBOLS} payload symbols "
                                "for stable metrics")
        ch = _get(bd, "channel", path, dict)
        mask, mask_source = _parse_mask(_get(ch, "mask", f"{path}.channel"),
                                        f"{path}.channel.mask", base_dir)
        snr = ch.get("target_snr_db")
        if snr is None:
            snr = math.inf  # noiseless
        elif not _finite_number(snr):
            raise ScenarioError(f"{path}.channel.target_snr_db", "expected a finite number or null")
        dc = _parse_downconvert(bd.get("downconvert"), f"{path}.downconvert")
        if dc is not None:
            # the frame as build_frame samples it, decimated back to one
            # sample per subcarrier as run_band does
            fs = plan.spacing_hz * (plan.n_subcarriers * tx.oversample)
            try:
                check_if_window(plan.center_hz, fs, **dc, decimate=tx.oversample)
            except ValueError as e:
                raise ScenarioError(f"{path}.downconvert", str(e)) from None
            try:
                resampled_cp_length(cp_length(plan.n_subcarriers, tx.oversample,
                                              tx.cp_fraction), tx.oversample, 1)
            except ValueError as e:
                raise ScenarioError(f"{path}.tx.cp_fraction", str(e)) from None
        bands.append(BandScenario(
            name=name, plan=plan, master=master, slave=slave,
            loop=replace(servo, target_offset_hz=slave.offset_hz - master.offset_hz),
            lock_seed=_get(seeds_d, f"lock_{name}", "$.seeds", int),
            noise_seed=_get(seeds_d, f"noise_{name}", "$.seeds", int),
            tx=tx, mask=mask, mask_source=mask_source, target_snr_db=float(snr),
            downconvert=dc,
        ))

    psd_rbw = _get(doc, "psd_rbw_hz", "$", float, required=False, default=100e6)
    try:
        for band in bands:
            band.check_psd_rbw(psd_rbw, ("tx", "rx"))
    except ValueError as e:
        raise ScenarioError("$.psd_rbw_hz", str(e)) from None

    return Scenario(
        schema_version=version,
        description=description,
        fec=fec,
        bands=tuple(bands),
        psd_rbw_hz=psd_rbw,
    )


def load_scenario(path) -> Scenario:
    p = Path(path)
    text = p.read_text()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ScenarioError(str(p), f"invalid JSON at line {e.lineno}: {e.msg}") from None
    return scenario_from_dict(doc, p.parent)


def default_scenario_path() -> Path:
    return Path(resources.files("wdlink").joinpath("data/default_scenario.json"))
