"""Resilient estimation, sensor-attack detection, and distributed formation
control for a string of vehicles whose absolute-position sensors may be
compromised — plus a deterministic simulation harness and CLI."""

__version__ = "0.1.0"
