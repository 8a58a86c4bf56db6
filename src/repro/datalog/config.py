"""Evaluation-mode configuration for the Datalog engine.

One frozen, validated :class:`EngineConfig` selects the evaluation
backend everywhere a run is configured (:func:`repro.replay.replay`,
:class:`repro.replay.Execution`, :class:`repro.datalog.Engine`, the
emulator, the ``Session`` facade, the CLI and the service protocol):

- ``"compiled"`` — columnar relation storage
  (:class:`repro.datalog.columnar.ColumnarStore`) plus per-rule compiled
  join closures (:mod:`repro.datalog.compiled`), lazy provenance
  recording, and copy-on-write configuration forks in the emulator.
  The default and the only fast path.
- ``"reference"`` — linear scans over sorted tables, eager
  seven-vertex provenance construction, and full configuration clones
  with linear flow-table scans in the emulator.  It is the independent
  oracle the equivalence tests compare the fast path against.

Both backends produce byte-identical tables, graphs, trees and reports
— a backend changes cost, never results (see
``tests/datalog/test_index_equivalence.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

__all__ = ["EngineConfig", "BACKENDS"]

BACKENDS = ("compiled", "reference")


@dataclass(frozen=True)
class EngineConfig:
    """Validated, immutable selection of the evaluation backend."""

    backend: str = "compiled"

    def __post_init__(self):
        if self.backend not in BACKENDS:
            raise ValueError(
                f"unknown engine backend {self.backend!r}; "
                f"expected one of {', '.join(BACKENDS)}"
            )

    @classmethod
    def coerce(
        cls, value: Union[None, "EngineConfig", str]
    ) -> "EngineConfig":
        """Accept the shapes user-facing layers see.

        ``None`` means the default and a backend name selects that
        backend.  Raises :class:`ValueError` on anything else.
        """
        if value is None:
            return cls()
        if isinstance(value, cls):
            return value
        if not isinstance(value, str):
            raise ValueError(
                f"cannot interpret {value!r} as an EngineConfig; pass an "
                f"EngineConfig or a backend name"
            )
        return cls(backend=value)
