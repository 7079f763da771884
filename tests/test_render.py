"""SVG output tests: well-formedness, element counts, determinism, and
golden digests of the fixed style."""

import hashlib
import xml.etree.ElementTree as ET
from fractions import Fraction
from xml.sax.saxutils import escape

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acckit import (
    BeamSpec,
    BounceEvent,
    IncidenceStructure,
    ValidationFailed,
    WedgeSpec,
    expand,
    family_wedge,
    render,
    render_arrangement,
    render_wedge,
    serialize_wedge,
)
from conftest import run_capped

SVG_NS = "{http://www.w3.org/2000/svg}"


def _count(svg_text, tag, cls_prefix=None):
    root = ET.fromstring(svg_text)
    found = 0
    for element in root.iter(f"{SVG_NS}{tag}"):
        if cls_prefix is None or element.get("class", "").startswith(cls_prefix):
            found += 1
    return found


def test_wedge_svg_family():
    svg = render_wedge(family_wedge(1))
    ET.fromstring(svg)
    assert _count(svg, "path", "mirror-ray") == 2
    assert _count(svg, "polyline") == 2


def test_wedge_svg_no_beams():
    svg = render_wedge(WedgeSpec(2))
    assert _count(svg, "path", "mirror-ray") == 2
    assert _count(svg, "polyline") == 0


def test_wedge_svg_deterministic():
    assert render_wedge(family_wedge(2)) == render_wedge(family_wedge(2))


def test_arrangement_polyline_counts():
    svg = render_arrangement(family_wedge(1))
    ET.fromstring(svg)
    assert _count(svg, "polyline") == 25
    svg = render_arrangement(family_wedge(2))
    assert _count(svg, "polyline") == 43


def test_arrangement_minimal_kaleidoscope():
    # Two diameters plus the bounding circle.
    svg = render_arrangement(WedgeSpec(2))
    assert _count(svg, "polyline", "mirror") == 2
    assert _count(svg, "polyline", "line-infinity") == 1
    assert _count(svg, "polyline") == 3


def test_arrangement_classes():
    svg = render_arrangement(family_wedge(1))
    assert _count(svg, "polyline", "mirror") == 8
    assert _count(svg, "polyline", "line-infinity") == 1
    assert _count(svg, "polyline", "beam beam-red") == 8
    assert _count(svg, "polyline", "beam beam-blue") == 8


def test_arrangement_deterministic():
    assert render_arrangement(family_wedge(1)) == render_arrangement(family_wedge(1))


def test_arrangement_propagates_expansion_errors():
    from acckit import NonClosingBeam

    beam = BeamSpec("z", [BounceEvent("T", 1)])
    with pytest.raises(NonClosingBeam):
        render_arrangement(WedgeSpec(3, (beam,)))


def test_arrangement_raises_the_validation_failure_of_expand():
    """Two coincident beams: the quotient refuses the expansion, and the
    renderer raises the report and message that expand raises."""
    spec = WedgeSpec(4, [BeamSpec(name, [BounceEvent("T", 1), BounceEvent("B", 1)]) for name in ("b0", "b1")])
    with pytest.raises(ValidationFailed) as expanded:
        expand(spec)
    with pytest.raises(ValidationFailed) as rendered:
        render_arrangement(spec)
    assert rendered.value.report == expanded.value.report
    assert str(rendered.value) == str(expanded.value)


def test_arrangement_builds_no_structure(monkeypatch):
    """A valid expansion is proven valid on its rotation quotient, and the
    SVG reads only the copies' paths, so no structure is built."""
    svg = render_arrangement(family_wedge(2))

    def refuse(*args):
        raise AssertionError("structure built")

    monkeypatch.setattr(IncidenceStructure, "trusted", staticmethod(refuse))
    with pytest.raises(AssertionError, match="structure built"):
        expand(family_wedge(2))
    assert render_arrangement(family_wedge(2)) == svg


def _exact_radius(rank):
    return Fraction(100) * Fraction(4, 5) ** rank


def test_radius_map_monotone():
    radii = [_exact_radius(rank) for rank in range(1, 8)]
    assert all(a > b for a, b in zip(radii, radii[1:]))


def test_radius_is_the_exact_radius_rounded():
    """Every radius below the underflow rank is the float of the exact
    100 * (4/5)**rank.  One rank a wedge: far ranks share the float 0.0,
    which the rank-order check refuses."""
    for rank in range(1, render._UNDERFLOW_RANK):
        spec = WedgeSpec(2, [BeamSpec("b", [BounceEvent("T", rank)])])
        assert render._radii(spec) == {rank: float(_exact_radius(rank))}, rank


def test_rendering_does_not_mutate():
    spec = family_wedge(1)
    before = spec.beams
    render_arrangement(spec)
    assert spec.beams == before


def test_xml_hostile_beam_name_escaped():
    beam = BeamSpec('a"b&c<d', [BounceEvent("T", 1)])
    svg = render_wedge(WedgeSpec(2, (beam,)))
    ET.fromstring(svg)


@settings(derandomize=True, max_examples=300)
@given(st.text(alphabet="&<>\"'\n\r\tab;#", max_size=12))
def test_escaping_matches_saxutils(text):
    assert render._attr(text) == escape(text, {'"': "&quot;"})


def test_underflow_rank_is_where_floats_are_zero():
    """From the underflow rank on, the exact radius rounds to 0.0, so taking
    0.0 there without forming it changes no output; and the bound is within
    a factor 2 of the first rank that rounds to 0.0."""
    cutoff = render._UNDERFLOW_RANK
    assert render._RADIUS_BASE == 100
    assert float(_exact_radius(cutoff)) == 0.0
    assert float(_exact_radius(cutoff // 2)) > 0.0


@pytest.mark.parametrize("target", ["wedge", "arrangement"])
def test_render_far_rank_finishes(tmp_path, target):
    """A rank of 10^9 renders at radius 0.0 instead of forming the exact
    power 4/5 ** 10^9.  Address space is capped at 1 GiB and time at 60 s;
    never run this input without the cap."""
    path = tmp_path / "far.wedge"
    path.write_text("wedge 1\nm 2\nbeam a T1000000000\n")
    result = run_capped(["render", target, str(path)])
    assert (result.returncode, result.stderr) == (0, "")
    assert _count(result.stdout, "polyline", "beam") == (1 if target == "wedge" else 2)


def test_arrangement_writes_each_path_as_it_is_made(tmp_path):
    """render arrangement formats each copy's polyline from its waypoints as
    they are made, not from a kept tuple of every copy's: family j = 100
    peaked at 118 MiB and ran out of a 96 MiB address space, and now peaks
    at about 40 MiB.  Never run this input without the cap."""
    path = tmp_path / "j100.wedge"
    path.write_text(serialize_wedge(family_wedge(100)))
    result = run_capped(["render", "arrangement", str(path)], cap=96 << 20)
    assert (result.returncode, result.stderr) == (0, "")
    assert _count(result.stdout, "polyline", "beam") == 2 * family_wedge(100).m


def _beam(name, *bounces):
    return BeamSpec(name, [BounceEvent(b[0], int(b[1:])) for b in bounces])


# sha256 of render_wedge and render_arrangement output, recorded before the
# style became fixed (with the then default options).  The three-beam wedge
# draws two beams from the palette, the hostile name needs escaping.
SVG_GOLDEN = {
    "family-1": ("d7be4df46fb230399a7c899cb3011131b3126192a3a09fe69922316316a1f9e6", "20e086af3184b9fd23d9a1857153c0174f39f902ad242122ac70237b008cac3c"),
    "family-2": ("d6b7bf2ce9c8575eab137ab133fe7d7e1c2d7d154c16b23a46abf30f9c56edbf", "730d51cfdf07fb32fc4bbc32d082164f7b9c3315395c933216b5993cfa74484a"),
    "family-3": ("d609415610a7bb02ba2b291e7a0ede2d0e97e4a4c1920bf291f87f431d496b6d", "c0357708786690f88c56d6644367c97a0cedb8f7e228300f2a8d111bc7e3b628"),
    "family-4": ("fed425d3f817b2b56ba055054e4647d174718c491b6f72dcafff83dcdd9135b5", "c05fa1d47b632e007f3c2c500f21e567adc396de900fbbc23e261526f7b7664c"),
    "family-5": ("ffaae63fbb89d126a7e90b53e196fc274131db0193c914d3d1304071e0dd4a5f", "292ee621be7744e55cbb0d957843d7bd3e545b36219288ac3cbd1425a42bde31"),
    "family-6": ("8cf9c31089f55de3c09b984f5446aa1b0ffc00d4fe43e6a3ae2eeaecea6a8e73", "a0a19864a9e4c313dc78f9abfdb73b98ee7606c47f489f1fdbca9c85c3a8bae1"),
    "m2": ("d6fa7e0b13062bd27537a132eea8eba1eeb5c454d9299c84885b5b318fe922f0", "c873c448fe32cc07e1b47e1e5d9306d0925e7f3d300841835cd6db3b25e67b73"),
    "three-beams": ("f714b12fe69ea4c9dec85a21fe70cbda4aaaad87fd0dedd3640620164fc24925", "22c393baa375c39d94bbdd9cd1f877b5e09ac311304d4c3a28d3b18ef59bbbc5"),
    "hostile": ("888b9253bd6ad0f1e41aa2f7d0e3d43c89b09cb391e98502eac560c666d53a5e", "96235cc3c53bced99f5b99fd5338216b7ad3e8692297185729000d9d3badac7c"),
}
GOLDEN_SPECS = {
    **{f"family-{j}": lambda j=j: family_wedge(j) for j in range(1, 7)},
    "m2": lambda: WedgeSpec(2),
    "three-beams": lambda: WedgeSpec(4, (_beam("a", "T1", "B1"), _beam("red", "T2", "B3"), _beam("c", "T4", "B4"))),
    "hostile": lambda: WedgeSpec(2, (_beam('a"b&c<d', "T1"),)),
}


@pytest.mark.parametrize("name", sorted(SVG_GOLDEN))
def test_svg_golden(name):
    spec = GOLDEN_SPECS[name]()
    digests = tuple(hashlib.sha256(render_fn(spec).encode()).hexdigest() for render_fn in (render_wedge, render_arrangement))
    assert digests == SVG_GOLDEN[name]
