"""Deterministic link-level simulator for a dual-band millimeter-wave OFDM
system carried on offset-locked laser beats."""

from .bandplan import (BandPlan, active_indices, detected_indices,
                       inter_band_gap_hz, make_default_plans, subcarrier_center,
                       subcarrier_centers)
from .bitload import (BitLoadMap, CapacityReport, FecProfile, ber_mqam,
                      capacity, load_bits, min_snr_db_for, threshold_table)
from .channel import (MaskPoint, apply_carrier, apply_mask, check_if_window,
                      dband_downconvert, default_masks, fspl_db, load_mask_csv,
                      mask_gain_db)
from .noise import (LaserSpec, PhaseTrace, add_awgn, beat_phase, estimate_psd,
                    gen_phase_noise, read_psd_csv, write_psd_csv)
from .ofdm_rx import (EqualizedFrame, SubcarrierMetrics, SyncError,
                      band_average_snr_db, count_bit_errors, demodulate,
                      equalize, evm_snr, export_constellation,
                      read_metrics_csv, synchronize, write_metrics_csv)
from .ofdm_tx import (CONSTELLATIONS, FrameRef, TxConfig, build_frame, clip,
                      demap_qam, gen_prbs, map_qam, papr_db, pilot_indices,
                      synth_time)
from .opll import (LockResult, LoopConfig, closed_loop_suppression,
                   free_running_beat, open_loop_gain, pi_gains_for,
                   residual_phase_variance, simulate_lock, unity_gain_hz)
from .runner import build_summary, lock_sim, run_scenario, tx_only
from .scenario import (Scenario, ScenarioError, default_scenario_path,
                       load_scenario, scenario_from_dict)
from .waveform import ComplexWaveform, read_iq, write_iq

__version__ = "0.1.0"
