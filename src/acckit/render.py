"""Static SVG diagrams of wedges and expanded arrangements.

Geometry here is presentation only.  Bounce ranks are mapped to radii by
r_k = R * rho^k with 0 < rho < 1, so larger ranks (closer to the apex) get
strictly smaller radii; the renderer checks that monotonicity before
drawing and raises ValueError where floats cannot keep it.  The
combinatorics is never touched: rendering reads a wedge, expands it when
needed, and writes text.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .wedge import WedgeSpec, expand


# Written out rather than taken from xml.sax.saxutils, whose import pulls in
# urllib.request, http.client and email; the results are the same.
def _escape(value: str) -> str:
    """Escape &, > and < for XML text."""
    return value.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _attr(value: str) -> str:
    """Escape text for use inside a double-quoted XML attribute."""
    return _escape(value).replace('"', "&quot;")


def _quoteattr(value: str) -> str:
    """Escape and quote an XML attribute value: double quotes unless the
    value holds a double quote and no single one."""
    value = _escape(value).replace("\n", "&#10;").replace("\r", "&#13;").replace("\t", "&#9;")
    if '"' not in value:
        return f'"{value}"'
    if "'" not in value:
        return f"'{value}'"
    return '"' + value.replace('"', "&quot;") + '"'

_DEFAULT_STROKES = {
    "mirror": "#333333",
    "infinity": "#999999",
    "beam:red": "#c0392b",
    "beam:blue": "#2f5fc0",
}
_EXTRA_PALETTE = ("#2e8b57", "#8e44ad", "#b8860b", "#16a085", "#aa3377", "#557711")


@dataclass(frozen=True)
class RenderOptions:
    """Canvas size in abstract units, the rank-to-radius map parameters,
    stroke colors per line class, and the label flag."""

    size: int = 640
    radius_base: Fraction = Fraction(100)
    radius_ratio: Fraction = Fraction(4, 5)
    stroke_classes: dict[str, str] = field(default_factory=dict)
    show_labels: bool = False

    def __post_init__(self):
        object.__setattr__(self, "radius_base", Fraction(self.radius_base))
        object.__setattr__(self, "radius_ratio", Fraction(self.radius_ratio))
        if self.size <= 0:
            raise ValueError(f"canvas size must be positive, got {self.size}")
        if self.radius_base <= 0:
            raise ValueError(f"radius base must be positive, got {self.radius_base}")
        if not (0 < self.radius_ratio < 1):
            raise ValueError(f"radius ratio must lie in (0, 1), got {self.radius_ratio}")

    def radius(self, rank: int) -> Fraction:
        return self.radius_base * self.radius_ratio**rank

    def stroke(self, cls: str, fallback_index: int = 0) -> str:
        if cls in self.stroke_classes:
            return self.stroke_classes[cls]
        if cls in _DEFAULT_STROKES:
            return _DEFAULT_STROKES[cls]
        return _EXTRA_PALETTE[fallback_index % len(_EXTRA_PALETTE)]


def _fmt(x: float) -> str:
    return f"{x:.4f}"


def _underflow_rank(opts: RenderOptions) -> int:
    """A rank from which on the radius lies below 2**-1075, so its float is
    0.0, found from bit lengths: with ratio**c <= 1/2 the radius is at most
    base * 2**-(rank // c), and base < 2**(len(numerator) -
    len(denominator) + 1) for bit lengths len."""
    c, power = 1, opts.radius_ratio
    while 2 * power.numerator > power.denominator:
        c, power = 2 * c, power * power
    base = opts.radius_base
    return c * (base.numerator.bit_length() - base.denominator.bit_length() + 1 + 1075)


def _radii(opts: RenderOptions, spec: WedgeSpec) -> dict[int, float]:
    """The float radius of every rank the beams bounce at, checked to keep
    the rank order.  Past the underflow rank it is 0.0 without forming the
    exact power."""
    cutoff = _underflow_rank(opts)
    ranks = {e.rank for beam in spec.beams for e in beam.events}
    radii = {rank: 0.0 if rank >= cutoff else float(opts.radius(rank)) for rank in ranks}
    ordered = sorted(radii)
    for a, b in zip(ordered, ordered[1:]):
        if not radii[a] > radii[b]:
            raise ValueError("radius map must preserve rank order")
    return radii


def _svg(opts: RenderOptions, view: str, body: list[str]) -> str:
    """An SVG document: XML header, root element, body, closing tag."""
    header = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{opts.size}" '
        f'height="{opts.size}" viewBox="{view}">',
    ]
    return "\n".join(header + body + ["</svg>"]) + "\n"


def _beam(name: str, pts, color: str) -> str:
    """One beam polyline through pts."""
    coords = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in pts)
    return (
        f'<polyline class="beam beam-{_attr(name)}" points="{coords}" '
        f"stroke={_quoteattr(color)} fill=\"none\"/>"
    )


def render_wedge(spec: WedgeSpec, opts: RenderOptions = RenderOptions()) -> str:
    """One wedge: two mirror rays at angle pi/m plus the beam polylines."""
    angle = math.pi / spec.m
    base = float(opts.radius_base)
    radii = _radii(opts, spec)

    def point(side: str, rank: int) -> tuple[float, float]:
        r = radii[rank]
        if side == "B":
            return (r, 0.0)
        return (r * math.cos(angle), -r * math.sin(angle))

    ray_len = base * 1.25
    height = ray_len * math.sin(angle)
    pad = base * 0.08
    view = f"{_fmt(-pad)} {_fmt(-height - pad)} {_fmt(ray_len + 2 * pad)} {_fmt(height + 2 * pad)}"

    parts = [
        f'<path class="mirror-ray" d="M 0 0 L {_fmt(ray_len)} 0" '
        f'stroke={_quoteattr(opts.stroke("mirror"))} fill="none"/>',
        f'<path class="mirror-ray" d="M 0 0 L {_fmt(ray_len * math.cos(angle))} '
        f'{_fmt(-ray_len * math.sin(angle))}" stroke={_quoteattr(opts.stroke("mirror"))} fill="none"/>',
    ]

    for bi, beam in enumerate(spec.beams):
        pts = [point(e.side, e.rank) for e in beam.events]
        # Entry runs parallel to the bottom edge toward the first bounce.
        entry = (ray_len, pts[0][1])
        parts.append(_beam(beam.name, [entry] + pts, opts.stroke(f"beam:{beam.name}", bi)))
        if opts.show_labels:
            for e, (x, y) in zip(beam.events, pts):
                parts.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{_fmt(base * 0.012)}"/>')
                parts.append(
                    f'<text x="{_fmt(x)}" y="{_fmt(y - base * 0.02)}" '
                    f'font-size="{_fmt(base * 0.05)}">{e.side}{e.rank}</text>'
                )

    return _svg(opts, view, parts)


def render_arrangement(spec: WedgeSpec, opts: RenderOptions = RenderOptions()) -> str:
    """The full expansion: every pseudoline as one polyline, the line at
    infinity as the bounding circle (drawn as a closed polyline)."""
    arrangement = expand(spec)
    m = spec.m
    base = float(opts.radius_base)
    radii = _radii(opts, spec)

    circle_r = base * 1.05

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
    parts = [
        f'<polyline class="line-infinity" points="{circle_coords}" '
        f"stroke={_quoteattr(opts.stroke('infinity'))} fill=\"none\"/>"
    ]

    for i in range(m):
        a = circle_point(ray_angle(i))
        b = circle_point(ray_angle(i) + math.pi)
        parts.append(
            f'<polyline class="mirror" points="{_fmt(a[0])},{_fmt(a[1])} '
            f"{_fmt(b[0])},{_fmt(b[1])}\" stroke={_quoteattr(opts.stroke('mirror'))} fill=\"none\"/>"
        )

    beam_index = {beam.name: bi for bi, beam in enumerate(spec.beams)}
    for name, copy, waypoints in arrangement.paths:
        pts = []
        for kind, a, b in waypoints:
            if kind == "ideal":
                pts.append(circle_point(ray_angle(a)))
            else:
                pts.append(bounce_point(a, b))
        parts.append(_beam(name, pts, opts.stroke(f"beam:{name}", beam_index[name])))

    if opts.show_labels:
        parts.append(f'<circle cx="0" cy="0" r="{_fmt(base * 0.015)}"/>')

    return _svg(opts, view, parts)
