"""Unit constants used throughout the simulator.

All internal computations use SI base units: seconds, bytes, FLOPs, watts and
joules.  These constants keep conversions explicit at the boundaries (GPU
specs are naturally written in GB/s and TFLOPS, results are reported in ms).
"""

from __future__ import annotations

KB: int = 1024
MB: int = 1024 * KB
GB: int = 1024 * MB

KILO: float = 1e3
MEGA: float = 1e6
GIGA: float = 1e9
TERA: float = 1e12

GHZ: float = 1e9

MS: float = 1e-3
US: float = 1e-6
