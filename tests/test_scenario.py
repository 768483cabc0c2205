"""Scenario loading: each band arrives resolved into its stages' inputs."""

import dataclasses

import numpy as np

from wdlink.bitload import FecProfile
from wdlink.noise import LaserSpec
from wdlink.ofdm_tx import TxConfig
from wdlink.opll import LoopConfig, pi_gains_for
from wdlink.scenario import default_scenario_path, load_scenario


def test_bands_carry_resolved_run_inputs():
    scn = load_scenario(default_scenario_path())
    w, d = scn.bands
    assert w.master == d.master == LaserSpec("ld1", 100.0, 0.0)
    assert w.slave == LaserSpec("ld2", 5000.0, 92.5e9)
    assert d.slave == LaserSpec("ld3", 80000.0, 130e9)
    kp, ki = pi_gains_for(100e3, 20e3, 50e3)
    assert w.loop == LoopConfig(92.5e9, kp, ki, actuator_bw_hz=50e3, sim_rate_hz=50e6,
                                duration_s=0.02, initial_freq_error_hz=1e6)
    assert d.loop == dataclasses.replace(w.loop, target_offset_hz=130e9)
    # the PRBS register is the loader's default: the file leaves it out
    assert w.tx == d.tx == TxConfig(4, 64, 4, 8, 1 / 64, 10.0, 2, prbs_order=17,
                                    prbs_seed_state=0x1FFFF)
    assert scn.fec == FecProfile(overhead_fraction=0.155, ber_threshold=0.022)
    assert (w.lock_seed, w.noise_seed, d.lock_seed, d.noise_seed) == (2101, 2102, 2201, 2202)
    assert w.downconvert is None
    # the decimation is the frame's oversampling, resolved at load
    assert d.downconvert == {"seed_lo_hz": 21.7e9, "mult": 6,
                             "if_window_hz": (2.8e9, 19.8e9), "decimate": 2}


def test_seed_override_replaces_only_the_seeds():
    scn = load_scenario(default_scenario_path())
    over = scn.with_seed_override(7)
    state = np.random.SeedSequence(7).generate_state(4)
    assert [(b.lock_seed, b.noise_seed) for b in over.bands] == [
        (int(state[0]), int(state[1])), (int(state[2]), int(state[3]))]
    strip = dict(lock_seed=0, noise_seed=0)
    assert [dataclasses.replace(b, **strip) for b in over.bands] == [
        dataclasses.replace(b, **strip) for b in scn.bands]
    assert dataclasses.replace(over, bands=scn.bands) == scn
    assert scn.bands[0].lock_seed == 2101  # the loaded scenario is left as it was
    assert scn.with_seed_override(7) == over
