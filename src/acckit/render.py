"""Static SVG diagrams of wedges and expanded arrangements.

Geometry here is presentation only.  Bounce ranks are mapped to radii by
r_k = 100 * (4/5)^k, so larger ranks (closer to the apex) get strictly
smaller radii; the renderer checks that monotonicity before drawing and
raises ValueError where floats cannot keep it.  The combinatorics is never
touched: rendering reads a wedge, checks an expansion's validity on its
rotation quotient, and writes text.

The style is fixed: a 640-unit canvas, mirrors in #333333, the line at
infinity in #999999, beams named red and blue in #c0392b and #2f5fc0, and
every other beam in the colour at its position (mod 6) in a six-colour
palette.
"""

from __future__ import annotations

import math

from .wedge import ExpandedArrangement, WedgeSpec

_SIZE = 640
_RADIUS_BASE = 100
_BEAM_STROKES = {"red": "#c0392b", "blue": "#2f5fc0"}
_PALETTE = ("#2e8b57", "#8e44ad", "#b8860b", "#16a085", "#aa3377", "#557711")
# (4/5)**4 <= 1/2 and 100 < 2**7, so from rank 4 * (7 + 1075) on the radius
# 100 * (4/5)**rank lies below 2**-1075 and its float is 0.0.
_UNDERFLOW_RANK = 4 * (7 + 1075)


# Written out rather than taken from xml.sax.saxutils, whose import pulls in
# urllib.request, http.client and email; the results are the same.
def _attr(value: str) -> str:
    """Escape text for use inside a double-quoted XML attribute."""
    return value.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;").replace('"', "&quot;")


def _fmt(x: float) -> str:
    return f"{x:.4f}"


def _radii(spec: WedgeSpec) -> dict[int, float]:
    """The float radius of every rank the beams bounce at, checked to keep
    the rank order.  int / int rounds the exact quotient once, so each
    radius is the float nearest 100 * (4/5)**rank; past the underflow rank
    it is 0.0 without forming the powers."""
    ranks = {e.rank for beam in spec.beams for e in beam.events}
    radii = {rank: 0.0 if rank >= _UNDERFLOW_RANK else _RADIUS_BASE * 4**rank / 5**rank for rank in ranks}
    ordered = sorted(radii)
    for a, b in zip(ordered, ordered[1:]):
        if not radii[a] > radii[b]:
            raise ValueError("radius map must preserve rank order")
    return radii


def _svg(view: str, body: list[str]) -> str:
    """An SVG document: XML header, root element, body, closing tag."""
    header = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{_SIZE}" '
        f'height="{_SIZE}" viewBox="{view}">',
    ]
    return "\n".join([*header, *body, "</svg>", ""])


def _beam(name: str, index: int, pts) -> str:
    """The polyline through pts of beam `name`, the index-th beam."""
    coords = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in pts)
    color = _BEAM_STROKES.get(name, _PALETTE[index % len(_PALETTE)])
    return f'<polyline class="beam beam-{_attr(name)}" points="{coords}" stroke="{color}" fill="none"/>'


def render_wedge(spec: WedgeSpec) -> str:
    """One wedge: two mirror rays at angle pi/m plus the beam polylines."""
    angle = math.pi / spec.m
    radii = _radii(spec)

    def point(side: str, rank: int) -> tuple[float, float]:
        r = radii[rank]
        if side == "B":
            return (r, 0.0)
        return (r * math.cos(angle), -r * math.sin(angle))

    ray_len = _RADIUS_BASE * 1.25
    height = ray_len * math.sin(angle)
    pad = _RADIUS_BASE * 0.08
    view = f"{_fmt(-pad)} {_fmt(-height - pad)} {_fmt(ray_len + 2 * pad)} {_fmt(height + 2 * pad)}"

    parts = [
        f'<path class="mirror-ray" d="M 0 0 L {_fmt(ray_len)} 0" stroke="#333333" fill="none"/>',
        f'<path class="mirror-ray" d="M 0 0 L {_fmt(ray_len * math.cos(angle))} '
        f'{_fmt(-ray_len * math.sin(angle))}" stroke="#333333" fill="none"/>',
    ]

    for bi, beam in enumerate(spec.beams):
        pts = [point(e.side, e.rank) for e in beam.events]
        # Entry runs parallel to the bottom edge toward the first bounce.
        entry = (ray_len, pts[0][1])
        parts.append(_beam(beam.name, bi, [entry] + pts))

    return _svg(view, parts)


def render_arrangement(spec: WedgeSpec) -> str:
    """The full expansion: every pseudoline as one polyline, the line at
    infinity as the bounding circle (drawn as a closed polyline)."""
    arrangement = ExpandedArrangement(spec)
    arrangement.stats  # raises expand's ValidationFailed
    m = spec.m
    radii = _radii(spec)

    circle_r = _RADIUS_BASE * 1.05

    def ray_angle(ray: int) -> float:
        return ray * math.pi / m

    def circle_point(theta: float) -> tuple[float, float]:
        return (circle_r * math.cos(theta), -circle_r * math.sin(theta))

    def bounce_point(ray: int, rank: int) -> tuple[float, float]:
        r = radii[rank]
        theta = ray_angle(ray)
        return (r * math.cos(theta), -r * math.sin(theta))

    extent = circle_r * 1.06
    view = f"{_fmt(-extent)} {_fmt(-extent)} {_fmt(2 * extent)} {_fmt(2 * extent)}"

    # Line at infinity: the bounding circle as a 72-gon.
    steps = 72
    circle_coords = " ".join(
        f"{_fmt(x)},{_fmt(y)}"
        for x, y in [circle_point(2 * math.pi * i / steps) for i in range(steps + 1)]
    )
    parts = [f'<polyline class="line-infinity" points="{circle_coords}" stroke="#999999" fill="none"/>']

    for i in range(m):
        a = circle_point(ray_angle(i))
        b = circle_point(ray_angle(i) + math.pi)
        parts.append(
            f'<polyline class="mirror" points="{_fmt(a[0])},{_fmt(a[1])} '
            f'{_fmt(b[0])},{_fmt(b[1])}" stroke="#333333" fill="none"/>'
        )

    beam_index = {beam.name: bi for bi, beam in enumerate(spec.beams)}
    for name, _, waypoints in arrangement.paths:
        pts = [circle_point(ray_angle(a)) if kind == "ideal" else bounce_point(a, b) for kind, a, b in waypoints]
        parts.append(_beam(name, beam_index[name], pts))

    return _svg(view, parts)
