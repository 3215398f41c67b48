"""Headless GUI substrate — the GTK/Gnome stand-in.

The paper's gscope renders into a GTK canvas under X11.  This package
reproduces the visual layer without a display server:

* :mod:`repro.gui.geometry` — rectangles and the zoom/bias value-to-pixel
  transform.
* :mod:`repro.gui.color` — named colors and the default signal palette.
* :mod:`repro.gui.canvas` — a numpy RGB framebuffer with line, polyline,
  ruler and text-block primitives.
* :mod:`repro.gui.widget` — a minimal widget tree with click routing
  (left-click toggles a signal, right-click opens its parameter window —
  Figure 1's interactions).
* :mod:`repro.gui.scope_widget` — the ``GtkScope`` composite: canvas with
  traces drawn one pixel per polling period, x ruler in seconds, y ruler
  0..100, zoom/bias/period/delay widgets and per-signal rows.
* :mod:`repro.gui.windows` — the signal-parameters window (Figure 2) and
  control-parameters window (Figure 3) as editable models.
* :mod:`repro.gui.render` — ASCII rendering for terminals and PPM/PGM
  writers so every "screenshot" in the paper can be regenerated as a
  file.
* :mod:`repro.gui.printing` — offline printing of recorded tuple files
  (annotated image plus per-signal summary).
"""

from repro.gui.canvas import Canvas
from repro.gui.color import PALETTE, color_rgb
from repro.gui.geometry import Rect, ValueTransform
from repro.gui.render import ascii_render, write_pgm, write_ppm
from repro.gui.scope_widget import ScopeWidget
from repro.gui.widget import ClickButton, Label, SpinWidget, Widget
from repro.gui.windows import ControlParametersWindow, SignalParametersWindow

__all__ = [
    "Canvas",
    "ClickButton",
    "ControlParametersWindow",
    "Label",
    "PALETTE",
    "Rect",
    "ScopeWidget",
    "SignalParametersWindow",
    "SpinWidget",
    "ValueTransform",
    "Widget",
    "ascii_render",
    "color_rgb",
    "write_pgm",
    "write_ppm",
]
