"""The gateway's cycle engine: :class:`repro.service.engine.CycleEngine`.

The live gateway decides every closed wall-clock window through the same
engine the simulated-clock broker drives, so a live decision is the
decision the offline broker would make on the same arrivals.
``LiveCycleEngine`` is kept as this package's name for that one class.
"""

from repro.service.engine import CycleEngine

LiveCycleEngine = CycleEngine

__all__ = ["LiveCycleEngine"]
