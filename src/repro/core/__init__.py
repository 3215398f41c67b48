"""Core gscope library — the paper's primary contribution.

This package is a faithful Python port of the gscope C API described in
Sections 2-4 of the paper:

* :mod:`repro.core.signal` — the ``GtkScopeSig`` signal specification:
  name, data source (polled memory word, callback function, or timestamped
  buffer) and the optional per-signal parameters (color, min, max, line
  mode, hidden, filter).
* :mod:`repro.core.lowpass` — the per-signal low-pass filter
  ``y_i = a*y_{i-1} + (1-a)*x_i`` (Section 3.1).
* :mod:`repro.core.aggregate` — the seven event-aggregation functions of
  Section 4.2 (Maximum, Minimum, Sum, Rate, Average, Events, AnyEvent).
* :mod:`repro.core.buffer` — the scope-wide timestamped sample buffer with
  user-specified display delay and late-drop semantics (Sections 3.1, 4.4).
* :mod:`repro.core.channel` — runtime per-signal state (the library's
  ``GtkScopeSignal`` object).
* :mod:`repro.core.scope` — the scope itself: polling and playback
  acquisition, sampling period, zoom/bias, dynamic signal add/remove,
  lost-timeout compensation, recording.
* :mod:`repro.core.params` — the ``GtkScopeParameter`` control-parameter
  interface (Section 3.2).
* :mod:`repro.core.tuples` — the textual ``time value [name]`` tuple
  format used for streaming, recording and replay (Section 3.3).
* :mod:`repro.core.frequency` — frequency-domain signal views.
* :mod:`repro.core.trigger` — triggers and waveform envelopes (built from
  the paper's Future Work list, Section 6).
* :mod:`repro.core.manager` — multiple scopes on a single main loop.

Core imports only :mod:`repro.eventloop` from the rest of ``repro``.
Display, printing, capture, the obs plane and everything above build
on it; the hooks they plug into (metric cells, the reserved ``__obs.``
prefix, the span slot, the native build seam) live here, dependency
free: :mod:`repro.core.cells`, :mod:`repro.core.spans`,
:mod:`repro.core.native`.
"""

from repro.core.aggregate import AggregateKind, make_aggregator
from repro.core.buffer import SampleBuffer
from repro.core.channel import Channel
from repro.core.lowpass import LowPassFilter
from repro.core.manager import ScopeManager
from repro.core.params import ControlParameter, ParameterStore
from repro.core.scope import AcquisitionMode, Scope
from repro.core.signal import (
    Cell,
    LineMode,
    SignalSpec,
    SignalType,
    buffer_signal,
    func_signal,
    memory_signal,
)
from repro.core.tuples import Player, Recorder, Tuple3, format_tuple, parse_tuple

__all__ = [
    "AcquisitionMode",
    "AggregateKind",
    "Cell",
    "Channel",
    "ControlParameter",
    "LineMode",
    "LowPassFilter",
    "ParameterStore",
    "Player",
    "Recorder",
    "SampleBuffer",
    "Scope",
    "ScopeManager",
    "SignalSpec",
    "SignalType",
    "Tuple3",
    "buffer_signal",
    "format_tuple",
    "func_signal",
    "make_aggregator",
    "memory_signal",
    "parse_tuple",
]
