"""Side-by-side SVG rendering of a central path and its image path.

Lattice origin is bottom-left (mathematical convention): the y axis is
flipped relative to SVG screen coordinates.  The left panel shows the step
word on its n-by-n grid with the y = x diagonal; the right panel shows the
image path on an (n+1)-by-n grid with the chord to (n+1, n), interior
vertices emphasized.

``xml.etree.ElementTree`` is imported by the functions that build
elements, so importing this module, and the package, does not load it;
the first ``render_pair`` call does.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bijection import phi
from .lattice_core import DelannoyPath, central_index, path_vertices

GRID_COLOR = "#cccccc"
DIAGONAL_COLOR = "#888888"
PATH_COLOR = "#1f4fd8"
NORTH_LABEL_COLOR = "#d62728"
EAST_LABEL_COLOR = "#1f4fd8"


@dataclass(frozen=True)
class RenderSpec:
    """Visual options; ``cell_size`` is pixels per lattice unit (minimum 4)."""

    cell_size: int = 40
    show_grid: bool = True
    show_diagonal: bool = True
    label_steps: bool = False

    def __post_init__(self) -> None:
        if self.cell_size < 4:
            raise ValueError(f"cell_size must be >= 4, got {self.cell_size}")


def _fmt(value: float) -> str:
    return f"{value:g}"


class _Panel:
    """Maps lattice coordinates of one panel into the shared SVG canvas."""

    def __init__(self, origin_x: float, origin_y: float, height_units: int, cell: int):
        self.ox = origin_x
        self.oy = origin_y
        self.h = height_units
        self.cell = cell

    def point(self, x: float, y: float) -> tuple[float, float]:
        return self.ox + x * self.cell, self.oy + (self.h - y) * self.cell


def _draw_segment(group: ET.Element, panel: _Panel, a, b, color: str, width: float) -> None:
    import xml.etree.ElementTree as ET

    x0, y0 = panel.point(*a)
    x1, y1 = panel.point(*b)
    ET.SubElement(
        group, "line",
        x1=_fmt(x0), y1=_fmt(y0), x2=_fmt(x1), y2=_fmt(y1),
        stroke=color, attrib={"stroke-width": _fmt(width)},
    )


def _draw_grid(group: ET.Element, panel: _Panel, w_units: int, h_units: int) -> None:
    for gx in range(w_units + 1):
        _draw_segment(group, panel, (gx, 0), (gx, h_units), GRID_COLOR, 1)
    for gy in range(h_units + 1):
        _draw_segment(group, panel, (0, gy), (w_units, gy), GRID_COLOR, 1)


def _draw_path(group: ET.Element, panel: _Panel, vertices, dot_radii) -> None:
    import xml.etree.ElementTree as ET

    if len(vertices) > 1:
        points = " ".join(_fmt(c) for v in vertices for c in panel.point(*v))
        ET.SubElement(
            group, "polyline",
            points=points, fill="none", stroke=PATH_COLOR,
            attrib={"stroke-width": "2.5", "stroke-linejoin": "round"},
        )
    for vertex, radius in zip(vertices, dot_radii):
        cx, cy = panel.point(*vertex)
        ET.SubElement(
            group, "circle", cx=_fmt(cx), cy=_fmt(cy), r=_fmt(radius), fill="black"
        )


def _draw_step_labels(
    group: ET.Element, panel: _Panel, word: str, vertices, font: float
) -> None:
    import xml.etree.ElementTree as ET

    # vertices[0] is the origin, so vertices[1:] holds each step's end
    for ch, (x, y) in zip(word, vertices[1:]):
        if ch == "E":
            pos, color = (x - 0.5, y + 0.12), EAST_LABEL_COLOR
        elif ch == "N":
            pos, color = (x + 0.12, y - 0.4), NORTH_LABEL_COLOR
        else:
            continue
        px, py = panel.point(*pos)
        label = ET.SubElement(
            group, "text",
            x=_fmt(px), y=_fmt(py), fill=color,
            attrib={"font-size": _fmt(font), "font-family": "sans-serif"},
        )
        label.text = str(y)


def render_pair(path: DelannoyPath, spec: RenderSpec = RenderSpec()) -> str:
    """Render a central path and its image as one SVG document string."""
    import xml.etree.ElementTree as ET

    n, _ = central_index(path)
    cell = spec.cell_size
    margin = cell
    gap = int(1.5 * cell)

    lw, lh = max(n, 1), max(n, 1)
    rw, rh = n + 1, max(n, 1)
    left = _Panel(margin, margin, lh, cell)
    right = _Panel(margin + lw * cell + gap, margin, rh, cell)
    width = margin + lw * cell + gap + rw * cell + margin
    height = 2 * margin + max(lh, rh) * cell

    root = ET.Element(
        "svg",
        xmlns="http://www.w3.org/2000/svg",
        width=_fmt(width),
        height=_fmt(height),
        viewBox=f"0 0 {_fmt(width)} {_fmt(height)}",
    )
    group = ET.SubElement(root, "g")

    if spec.show_grid:
        _draw_grid(group, left, lw, lh)
        _draw_grid(group, right, rw, rh)
    if spec.show_diagonal:
        _draw_segment(group, left, (0, 0), (n, n), DIAGONAL_COLOR, 1.5)
        _draw_segment(group, right, (0, 0), (n + 1, n), DIAGONAL_COLOR, 1.5)

    small = max(cell * 0.07, 1.5)
    big = max(cell * 0.11, 2.5)
    word_vertices = path_vertices(path)
    _draw_path(group, left, word_vertices, [small] * len(word_vertices))
    image = phi(path)
    radii = [small] + [big] * len(image.interior) + [small]
    _draw_path(group, right, image.vertices, radii)

    if spec.label_steps:
        _draw_step_labels(group, left, path.word, word_vertices, font=cell * 0.35)

    return ET.tostring(root, encoding="unicode")
