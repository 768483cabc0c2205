"""Span recording around the public functions of wdlink's layers.

Each traced function is replaced by a wrapper in its defining module and in
every loaded ``wdlink`` module that binds it by name, so a caller reaches the
wrapper however it imported the function. ``uninstall`` puts the originals
back. Spans (name, start, end, parent) stay in memory until the caller writes
them out; counts are taken from each call's arguments or result.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
import time

import numpy as np

ENTRY = "runner"  # spans of the runner's entry points; everything else nests in them


def _lock_counts(a, r):
    # the recorded phase error is clipped where the detector saturates
    return {"opll.samples": len(r.phase_error.phases),
            "opll.saturated_samples": int(np.count_nonzero(
                np.abs(r.phase_error.phases) >= 2.0 * math.pi))}


def _frame(a, r):
    wave, ref = r
    return {"ofdm_tx.frame_samples": len(wave),
            "ofdm_tx.payload_bits": sum(len(v) for v in ref.payload_bits.values())}


# (module, function, layer metric, count taker or None)
LAYER_FUNCTIONS = (
    ("opll", "simulate_lock", "opll.simulate_lock", _lock_counts),
    ("opll", "write_lock_csv", "opll.write_lock_csv", None),
    ("noise", "estimate_psd", "noise.estimate_psd",
     lambda a, r: {"noise.psd_input_samples": len(a["x"])}),
    ("noise", "write_psd_csv", "noise.write_psd_csv",
     lambda a, r: {"noise.psd_rows": len(a["freqs"])}),
    ("noise", "add_awgn", "noise.add_awgn", None),
    ("ofdm_tx", "build_frame", "ofdm_tx.build_frame", _frame),
    ("ofdm_tx", "clip", "ofdm_tx.clip", None),
    ("ofdm_tx", "papr_db", "ofdm_tx.papr_db", None),
    ("channel", "apply_carrier", "channel.apply_carrier", None),
    ("channel", "apply_mask", "channel.apply_mask", None),
    ("channel", "dband_downconvert", "channel.dband_downconvert", None),
    ("waveform", "write_iq", "waveform.write_iq",
     lambda a, r: {"waveform.iq_bytes": 8 * len(a["w"])}),
    ("ofdm_rx", "synchronize", "ofdm_rx.synchronize", None),
    ("ofdm_rx", "demodulate", "ofdm_rx.demodulate", None),
    ("ofdm_rx", "equalize", "ofdm_rx.equalize", None),
    ("ofdm_rx", "evm_snr", "ofdm_rx.evm_snr", None),
    ("ofdm_rx", "count_bit_errors", "ofdm_rx.count_bit_errors", None),
    ("ofdm_rx", "write_metrics_csv", "ofdm_rx.write_csv", None),
    ("ofdm_rx", "write_constellation_csv", "ofdm_rx.write_csv", None),
    ("bitload", "load_bits", "bitload.load_bits", None),
    ("bitload", "write_bitload_csv", "bitload.write_csv", None),
    ("bitload", "write_threshold_csv", "bitload.write_csv", None),
    ("bitload", "write_capacity_json", "bitload.write_csv", None),
    ("runner", "build_summary", "runner.build_summary", None),
    ("runner", "run_scenario", ENTRY, None),
    ("runner", "lock_sim", ENTRY, None),
)

TIMED_LAYERS = sorted({layer for _, _, layer, _ in LAYER_FUNCTIONS} - {ENTRY})
COUNTS = ("opll.samples", "opll.saturated_samples", "noise.psd_input_samples",
          "noise.psd_rows", "ofdm_tx.frame_samples", "ofdm_tx.payload_bits",
          "waveform.iq_bytes")


class Tracer:
    """Records spans and counts while installed."""

    def __init__(self):
        self.spans = []     # [layer, start_s, end_s, parent index or -1]
        self.counts = dict.fromkeys(COUNTS, 0)
        self._stack = []
        self._saved = []    # (module, attribute, original)

    def _wrap(self, fn, layer, count):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            idx = len(self.spans)
            self.spans.append([layer, time.perf_counter(), None, parent])
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[idx][2] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                for key, n in count(sig.bind(*args, **kwargs).arguments, result).items():
                    self.counts[key] += n
            return result
        return traced

    def install(self) -> None:
        for mod_name, fn_name, layer, count in LAYER_FUNCTIONS:
            original = getattr(importlib.import_module(f"wdlink.{mod_name}"), fn_name)
            traced = self._wrap(original, layer, count)
            for name, mod in list(sys.modules.items()):
                if name != "wdlink" and not name.startswith("wdlink."):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, attr, original))
                        setattr(mod, attr, traced)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()

    def layer_metrics(self) -> dict:
        """Summed inclusive milliseconds per layer, the runner's self time
        (its spans minus their direct children) and the counts."""
        ms = dict.fromkeys(TIMED_LAYERS, 0.0)
        ms["runner.self"] = 0.0
        for layer, start, end, parent in self.spans:
            dur = (end - start) * 1e3
            if layer == ENTRY:
                ms["runner.self"] += dur
            else:
                ms[layer] += dur
                if parent >= 0 and self.spans[parent][0] == ENTRY:
                    ms["runner.self"] -= dur
        out = {f"{k}_ms": v for k, v in ms.items()}
        out.update(self.counts)
        return out

    def root_ms(self) -> float:
        return sum((e - s) * 1e3 for layer, s, e, _ in self.spans if layer == ENTRY)
