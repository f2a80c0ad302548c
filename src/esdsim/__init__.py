"""Simulator for multiport entangled-state discrimination, qudit
teleportation, and measurement-device-independent QKD key-rate analysis.

Import names from their modules (`esdsim.cli`, `esdsim.protocols`, ...);
the package root defines only `__version__`."""

__version__ = "0.1.0"
