"""Plain-text charts for terminals and bench reports.

The benches archive their figures as text; these helpers render category
bars the way the paper's figures read, with no plotting dependency.
"""

from __future__ import annotations

from typing import Mapping

from repro.errors import ConfigurationError

_BAR = "#"


def bar_chart(values: Mapping[str, float], width: int = 50,
              title: str | None = None, unit: str = "") -> str:
    """Horizontal bars, one per labelled value (zero-anchored)."""
    if width <= 0:
        raise ConfigurationError("width must be positive")
    lines = [title] if title else []
    if not values:
        return "\n".join(lines + ["(no data)"])
    label_width = max(len(str(k)) for k in values)
    peak = max((abs(v) for v in values.values()), default=0.0)
    for label, value in values.items():
        length = 0 if peak == 0 else round(abs(value) / peak * width)
        bar = _BAR * length
        sign = "-" if value < 0 else ""
        lines.append(f"{str(label):<{label_width}} | {sign}{bar} "
                     f"{value:.3g}{unit}")
    return "\n".join(lines)


def savings_chart(points: Mapping[float, float], title: str,
                  x_label: str = "CP-Limit") -> str:
    """A Figure 5-style savings curve: bars per x value, in percent."""
    values = {f"{x:g}": y * 100 for x, y in sorted(points.items())}
    return bar_chart(values, title=title, unit="%")
