import pytest

from oracles import interior_colors
from trifold.errors import ParseError
from trifold.folding import FoldingSequence, ball_patch, patch
from trifold.lattice import Seg
from trifold.patternio import (
    read_pattern,
    read_tiling,
    render_svg,
    render_tiling_svg,
    write_pattern,
    write_tiling,
)
from trifold.tiling import to_tiling


def test_pattern_roundtrip_triangle():
    p = patch(FoldingSequence.parse("(+-)*"), 3)
    text = write_pattern(p, "(+-)*")
    q, seq = read_pattern(text)
    assert seq == "(+-)*"
    assert q.region == p.region
    assert q.colors == p.colors
    assert set(q.region.iter_boundary_segments()) == set(p.region.iter_boundary_segments())
    assert write_pattern(q, seq) == text  # byte-identical reserialization


def test_pattern_roundtrip_ball_and_unknown_boundary():
    p = patch(FoldingSequence("+++"), 3)  # boundary unknown (layer 4)
    text = write_pattern(p, "+++")
    assert " unknown *" in text
    q, _ = read_pattern(text)
    assert q.colors == p.colors
    assert set(q.region.iter_boundary_segments()) == set(p.region.iter_boundary_segments())

    b = ball_patch(FoldingSequence.parse("(+)*"), 6)
    text = write_pattern(b, "(+)*")
    q, _ = read_pattern(text)
    assert q.colors == b.colors


def test_pattern_records_sorted():
    p = patch(FoldingSequence.parse("(+)*"), 2)
    lines = write_pattern(p, "(+)*").splitlines()[3:]
    keys = [tuple(map(int, ln.split()[:3])) for ln in lines if ln]
    assert keys == sorted(keys)


def test_pattern_parse_errors_carry_line_numbers():
    good = write_pattern(patch(FoldingSequence.parse("(+)*"), 1), "(+)*")
    with pytest.raises(ParseError):
        read_pattern("nonsense\n")
    bad = good.replace("red", "pink", 1)
    with pytest.raises(ParseError) as info:
        read_pattern(bad)
    assert info.value.line is not None
    with pytest.raises(ParseError):
        read_pattern(good + "1 2\n")


def test_pattern_flags_must_match_region_boundary():
    lines = write_pattern(patch(FoldingSequence.parse("(+)*"), 2), "(+)*").splitlines()
    flagged = next(i for i, ln in enumerate(lines) if ln.endswith(" *"))
    interior = next(i for i, ln in enumerate(lines[3:], 3) if not ln.endswith(" *"))

    unflagged = list(lines)
    unflagged[flagged] = lines[flagged][:-2]
    with pytest.raises(ParseError):
        read_pattern("\n".join(unflagged) + "\n")

    overflagged = list(lines)
    overflagged[interior] = lines[interior] + " *"
    with pytest.raises(ParseError) as info:
        read_pattern("\n".join(overflagged) + "\n")
    assert info.value.line == interior + 1

    missing = lines[:flagged] + lines[flagged + 1:]
    with pytest.raises(ParseError):
        read_pattern("\n".join(missing) + "\n")

    ball = write_pattern(ball_patch(FoldingSequence.parse("(+)*"), 3), "(+)*")
    with pytest.raises(ParseError):
        read_pattern(ball.replace(" red\n", " red *\n", 1))


def test_pattern_names_each_flagged_interior_record():
    # the side spans end where the interior starts: a flag one anchor in is stray
    for p in (patch(FoldingSequence.parse("(+)*"), 2), patch(FoldingSequence.parse("(+-)*"), 3)):
        lines = write_pattern(p, "s").splitlines()
        for i, line in enumerate(lines[3:], 3):
            if not line.endswith(" *"):
                with pytest.raises(ParseError) as info:
                    read_pattern("\n".join([*lines[:i], line + " *", *lines[i + 1:]]) + "\n")
                assert info.value.line == i + 1


@pytest.mark.parametrize("header", [
    "region triangle -1", "region ball -2", "region tri 1 1 2", "region tri 1 -2 1",
])
def test_pattern_rejects_malformed_region_header(header):
    with pytest.raises(ParseError) as info:
        read_pattern(f"trifold-pattern v1\nseq +\n{header}\n")
    assert info.value.line == 3


@pytest.mark.parametrize("record", [
    "1 999 999 red", "4 0 0 red", "2 0 -9 blue", "3 -3 0 red",
])
def test_pattern_rejects_records_outside_region(record):
    text = write_pattern(patch(FoldingSequence.parse("(+)*"), 2), "(+)*")
    with pytest.raises(ParseError) as info:
        read_pattern(text + record + "\n")
    assert info.value.line == len(text.splitlines()) + 1


def test_pattern_region_check_follows_line_extents():
    # every segment of the window's rows, and nothing next to it, reads back
    for p in (patch(FoldingSequence.parse("(+-)*"), 3), ball_patch(FoldingSequence.parse("(+)*"), 5)):
        boundary = set(p.region.iter_boundary_segments())
        text = write_pattern(p, "s")
        assert read_pattern(text)[0].colors == p.colors
        for seg in p.colors:
            for d in (1, 2, 3):
                for dp, dq in ((1, 0), (0, 1), (-1, 0), (0, -1)):
                    near = Seg(d, seg.p + dp, seg.q + dq)
                    if near in p.colors or near in boundary:
                        continue
                    with pytest.raises(ParseError):
                        read_pattern(text + f"{near.d} {near.p} {near.q} red\n")


def test_pattern_rejects_repeated_records():
    lines = write_pattern(patch(FoldingSequence.parse("(+)*"), 2), "(+)*").splitlines()
    at = lines.index("1 -1 -1 red *")
    for extra in ("1 -1 -1 blue", "1 -1 -1 red *"):
        repeated = lines[:at + 1] + [extra] + lines[at + 1:]
        with pytest.raises(ParseError) as info:
            read_pattern("\n".join(repeated) + "\n")
        assert info.value.line == at + 2
    for extra in (lines[-1], lines[5]):
        with pytest.raises(ParseError) as info:
            read_pattern("\n".join(lines + [extra]) + "\n")
        assert info.value.line == len(lines) + 1
    unknown = write_pattern(patch(FoldingSequence("++"), 2), "++").splitlines()
    with pytest.raises(ParseError) as info:
        read_pattern("\n".join(unknown + [unknown[-1]]) + "\n")
    assert info.value.line == len(unknown) + 1


def test_tiling_rejects_repeated_tiles():
    p = ball_patch(FoldingSequence.parse("(+)*"), 6)
    lines = write_tiling(to_tiling(p), "(+)*", p.region).splitlines()
    assert "P -4 2 3" in lines
    for extra in ("P -4 2 0", "P -4 2 3"):
        with pytest.raises(ParseError) as info:
            read_tiling("\n".join([*lines, extra]) + "\n")
        assert info.value.line == len(lines) + 1
    # without a region header too
    with pytest.raises(ParseError):
        read_tiling("trifold-tiling v1\nseq x\nP 0 0 3\nP 0 0 0\n")


def test_tiling_rejects_bad_region_and_outside_tiles():
    p = ball_patch(FoldingSequence.parse("(+)*"), 4)
    text = write_tiling(to_tiling(p), "(+)*", p.region)
    lines = text.splitlines()
    with pytest.raises(ParseError) as info:
        read_tiling("\n".join([lines[0], lines[1], "region nonsense", *lines[3:]]) + "\n")
    assert info.value.line == 3
    with pytest.raises(ParseError) as info:
        read_tiling(text + "P 40 40 3\n")
    assert info.value.line == len(lines) + 1
    # without a header any tile is accepted
    back, _ = read_tiling("\n".join(lines[:2] + ["P 40 40 3"]) + "\n")
    assert len(back) == 1


def test_tiling_roundtrip():
    p = ball_patch(FoldingSequence.parse("(+)*"), 6)
    window = to_tiling(p)
    text = write_tiling(window, "(+)*", p.region)
    back, seq = read_tiling(text)
    assert seq == "(+)*"
    assert back == window
    assert write_tiling(back, seq, p.region) == text


def test_tiling_parse_validation():
    with pytest.raises(ParseError):
        read_tiling("trifold-tiling v1\nseq x\nP 0 0 9\n")
    with pytest.raises(ParseError):
        read_tiling("trifold-tiling v1\nseq x\nP 0 0 3 1\n")  # mono + slot
    with pytest.raises(ParseError):
        read_tiling("trifold-tiling v1\nseq x\nQ 0 0 2 1\n")


def test_svg_deterministic_and_wellformed():
    p = patch(FoldingSequence.parse("(+)*"), 3)
    svg1 = render_svg(p)
    svg2 = render_svg(p)
    assert svg1 == svg2
    assert svg1.startswith("<svg ") and svg1.rstrip().endswith("</svg>")
    assert svg1.count("<line ") == len(interior_colors(p))
    assert "#E41A1C" in svg1 and "#377EB8" in svg1


def test_svg_empty_patch():
    p = patch(FoldingSequence("+"), 0)
    svg = render_svg(p)
    assert svg.startswith("<svg ") and "</svg>" in svg


def test_tiling_svg():
    p = ball_patch(FoldingSequence.parse("(+)*"), 5)
    window = to_tiling(p)
    svg = render_tiling_svg(window)
    assert svg.count("<polygon ") == len(window)
    assert render_tiling_svg(window) == svg


def test_svg_has_fixed_precision():
    p = patch(FoldingSequence.parse("(+)*"), 1)
    svg = render_svg(p)
    import re
    for num in re.findall(r'x1="(-?\d+\.\d+)"', svg):
        assert len(num.split(".")[1]) == 4
