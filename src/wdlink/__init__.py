"""Deterministic link-level simulator for a dual-band millimeter-wave OFDM
system carried on offset-locked laser beats."""

__version__ = "0.1.0"
