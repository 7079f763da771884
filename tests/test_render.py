"""SVG output tests: well-formedness, element counts, determinism."""

import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from fractions import Fraction
from pathlib import Path
from xml.sax.saxutils import escape, quoteattr

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acckit import RenderOptions, WedgeSpec, family_wedge, render, render_arrangement, render_wedge

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
    from acckit import BeamSpec, BounceEvent, NonClosingBeam

    beam = BeamSpec("z", [BounceEvent("T", 1)])
    with pytest.raises(NonClosingBeam):
        render_arrangement(WedgeSpec(3, (beam,)))


def test_options_validation():
    with pytest.raises(ValueError):
        RenderOptions(radius_ratio=Fraction(3, 2))
    with pytest.raises(ValueError):
        RenderOptions(radius_ratio=Fraction(1))
    with pytest.raises(ValueError):
        RenderOptions(radius_base=Fraction(0))
    with pytest.raises(ValueError):
        RenderOptions(size=0)


def test_radius_map_monotone():
    opts = RenderOptions()
    radii = [opts.radius(rank) for rank in range(1, 8)]
    assert all(a > b for a, b in zip(radii, radii[1:]))


def test_custom_strokes_and_labels():
    opts = RenderOptions(stroke_classes={"beam:red": "#000001"}, show_labels=True)
    svg = render_wedge(family_wedge(1), opts)
    assert "#000001" in svg
    assert "<text" in svg
    ET.fromstring(svg)


def test_rendering_does_not_mutate():
    spec = family_wedge(1)
    before = spec.beams
    render_arrangement(spec)
    assert spec.beams == before


def test_xml_hostile_beam_name_escaped():
    from acckit import BeamSpec, BounceEvent

    beam = BeamSpec('a"b&c<d', [BounceEvent("T", 1)])
    svg = render_wedge(WedgeSpec(2, (beam,)))
    ET.fromstring(svg)


@settings(derandomize=True, max_examples=300)
@given(st.text(alphabet="&<>\"'\n\r\tab;#", max_size=12))
def test_escaping_matches_saxutils(text):
    assert render._attr(text) == escape(text, {'"': "&quot;"})
    assert render._quoteattr(text) == quoteattr(text)


def test_cli_import_leaves_out_network_modules():
    probe = "import sys, acckit.cli; print(sorted({'urllib.request', 'http.client', 'email'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(Path(render.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True, env=env)
    assert result.stdout == "[]\n"


@pytest.mark.parametrize(
    "base, ratio",
    [
        (100, Fraction(4, 5)),
        (1, Fraction(1, 2)),
        (Fraction(1, 3), Fraction(99, 100)),
        (10**30, Fraction(2, 3)),
        (Fraction(1, 2**1100), Fraction(1, 2)),
    ],
)
def test_underflow_rank_is_where_floats_are_zero(base, ratio):
    """From the underflow rank on, the exact radius rounds to 0.0, so taking
    0.0 there without forming it changes no output; and the bound is within
    a factor 2 of the first rank that rounds to 0.0."""
    opts = RenderOptions(radius_base=base, radius_ratio=ratio)
    cutoff = render._underflow_rank(opts)
    if cutoff > 0:
        assert float(opts.radius(cutoff)) == 0.0
        assert float(opts.radius(cutoff // 2)) > 0.0
    else:
        assert float(opts.radius_base) == 0.0


@pytest.mark.parametrize("target", ["wedge", "arrangement"])
def test_render_far_rank_finishes(tmp_path, target):
    """A rank of 10^9 renders at radius 0.0 instead of forming the exact
    power 4/5 ** 10^9.  Address space is capped at 1 GiB and time at 60 s;
    never run this input without the cap."""
    path = tmp_path / "far.wedge"
    path.write_text("wedge 1\nm 2\nbeam a T1000000000\n")

    def cap():
        import resource

        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    env = {**os.environ, "PYTHONPATH": str(Path(render.__file__).parents[1])}
    result = subprocess.run(
        [sys.executable, "-m", "acckit", "render", target, str(path)],
        capture_output=True,
        text=True,
        env=env,
        preexec_fn=cap,
        timeout=60,
    )
    assert (result.returncode, result.stderr) == (0, "")
    assert _count(result.stdout, "polyline", "beam") == (1 if target == "wedge" else 2)
