import hashlib
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trifold
from trifold.cli import main
from trifold.patternio import read_pattern


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_matrix_prints_printed_mp(capsys):
    code, out, _ = run(capsys, "matrix", "--word", "++")
    assert code == 0
    rows = [list(map(int, ln.split())) for ln in out.strip().splitlines()]
    assert rows[0] == [1, 1, 1, 1, 3, 3, 3, 3]
    assert rows[1] == [9, 5, 2, 0, 0, 0, 0, 0]


def test_matrix_power(capsys):
    code, out, _ = run(capsys, "matrix", "--word", "++", "--power", "2")
    rows = [list(map(int, ln.split())) for ln in out.strip().splitlines()]
    assert rows[0] == [28, 28, 28, 28, 36, 36, 36, 36]


def test_spectrum_reports_non_diagonalizable(capsys):
    code, out, _ = run(capsys, "spectrum", "--word", "+-")
    assert code == 0
    assert "diagonalizable: false" in out
    assert "eigenvalues: 16 4 4 4 1 1 0 0" in out


def test_density_output(capsys):
    code, out, _ = run(capsys, "density", "--word", "+", "--steps", "2", "--seed", "1")
    assert code == 0
    assert "n=1 0 0 0 3/4 1/4 0 0 0" in out


def test_verify_ok(capsys):
    code, out, _ = run(capsys, "verify", "--seq", "++++")
    assert code == 0
    assert "closed vs unfold: ok" in out
    assert "closed vs subst: ok" in out


def test_verify_random_words(capsys):
    code, out, _ = run(capsys, "verify", "--random", "2", "--length", "4",
                       "--rng-seed", "5")
    assert code == 0
    assert out.count(": ok") == 4


def test_generate_render_reconstruct_pipeline(tmp_path, capsys):
    pat = tmp_path / "p.pat"
    svg = tmp_path / "p.svg"
    til = tmp_path / "p.til"
    code, _, _ = run(capsys, "generate", "--seq", "(+)*", "--ball", "12",
                     "--out", str(pat))
    assert code == 0
    code, _, _ = run(capsys, "render", "--in", str(pat), "--svg", str(svg))
    assert code == 0
    assert svg.read_text().startswith("<svg ")

    # build the tiling file from the generated pattern
    from trifold.patternio import write_tiling
    from trifold.tiling import to_tiling
    patch, seq = read_pattern(pat.read_text())
    til.write_text(write_tiling(to_tiling(patch), seq, patch.region))
    code, out, _ = run(capsys, "reconstruct", "--in", str(til),
                       "--ref", str(pat), "--margin", "4")
    assert code == 0
    assert "reference match" in out


def test_reconstruct_margin_past_the_center_checks_nothing(tmp_path, capsys):
    # side-32 window: a 20-row margin leaves no segment to check
    pat = tmp_path / "p.pat"
    til = tmp_path / "p.til"
    code, _, _ = run(capsys, "generate", "--seq", "(+-)*", "--size", "5", "--out", str(pat))
    assert code == 0
    from trifold.patternio import write_tiling
    from trifold.tiling import to_tiling
    patch, seq = read_pattern(pat.read_text())
    til.write_text(write_tiling(to_tiling(patch), seq, patch.region))
    for margin in ("16", "20"):
        code, out, _ = run(capsys, "reconstruct", "--in", str(til), "--ref", str(pat),
                           "--margin", margin)
        assert code == 0
        assert "reference match: 0/0" in out


def test_reconstruct_matches_the_reference_up_to_the_rim(tmp_path, capsys):
    # with no margin every segment of the radius-12 ball is compared
    pat = tmp_path / "p.pat"
    til = tmp_path / "p.til"
    code, _, _ = run(capsys, "generate", "--seq", "(+)*", "--ball", "12", "--out", str(pat))
    assert code == 0
    from trifold.patternio import write_tiling
    from trifold.tiling import to_tiling
    patch, seq = read_pattern(pat.read_text())
    til.write_text(write_tiling(to_tiling(patch), seq, patch.region))
    n = len(patch.colors)
    code, out, _ = run(capsys, "reconstruct", "--in", str(til), "--ref", str(pat),
                       "--margin", "0")
    assert out == f"reconstructed {n} segments\nreference match: {n}/{n}\n"
    assert code == 0


def _ball_tiling(tmp_path, seq, radius):
    from trifold.folding import FoldingSequence, ball_patch
    from trifold.patternio import write_tiling
    from trifold.tiling import to_tiling
    patch = ball_patch(FoldingSequence.parse(seq), radius)
    til = tmp_path / "ball.til"
    til.write_text(write_tiling(to_tiling(patch), seq, patch.region))
    return til


@pytest.mark.parametrize("ref_seq, ref_ball, margin, match", [
    ("(+-)*", 12, 0, "984/1482"),
    ("(+-)*", 12, 4, "423/621"),
    ("(+)*", 16, 0, "1482/2661"),
    ("(+)*", 16, 2, "1482/2010"),
])
def test_reconstruct_counts_reference_mismatches(ref_seq, ref_ball, margin, match, tmp_path,
                                                 capsys):
    # another word's pattern on the same ball differs on some segments;
    # a larger ball's segments past the tiling's stay open, and count as
    # mismatches too
    til, pat = _ball_tiling(tmp_path, "(+)*", 12), tmp_path / "ref.pat"
    run(capsys, "generate", "--seq", ref_seq, "--ball", str(ref_ball), "--out", str(pat))
    assert run(capsys, "reconstruct", "--in", str(til), "--ref", str(pat),
               "--margin", str(margin)) == (
        1, f"reconstructed 1482 segments\nreference match: {match}\n", "")


@settings(deadline=None, max_examples=30)
@given(st.text("+-", min_size=1, max_size=3), st.text("+-", min_size=1, max_size=3),
       st.integers(0, 9), st.integers(-3, 3), st.booleans(),
       st.lists(st.integers(0, 10 ** 6), max_size=8))
def test_reference_match_equals_the_lookup_loop(word, other, radius, grow, ball, drops):
    # the row slices give the checked and bad counts that looking every
    # reference segment up gives, for every margin, against references
    # smaller or larger than the tiling, and with tiles left out, which
    # leaves segments open and cuts the runs
    from oracles import loop_reference_match
    from trifold.cli import _reference_match
    from trifold.folding import FoldingSequence, ball_patch, patch
    from trifold.tiling import reconstruct, strip_decoration, to_tiling

    tiles = dict(strip_decoration(to_tiling(ball_patch(FoldingSequence(word, True), radius))))
    keys = sorted(tiles)
    for i in drops if keys else ():
        tiles.pop(keys[i % len(keys)], None)
    colors = reconstruct(tiles)
    size = max(radius + grow, 0)
    seq = FoldingSequence(other, True)
    ref = ball_patch(seq, size) if ball else patch(seq, min(size, 5))
    for margin in range(size + 2):
        assert _reference_match(colors, ref, margin) == loop_reference_match(colors, ref, margin)


def test_stars_and_period(capsys):
    code, out, _ = run(capsys, "stars", "--seq", "(+)*", "--size", "4",
                       "--assert-allowed")
    assert code == 0
    assert "allowed: true" in out

    code, out, _ = run(capsys, "stars", "--seq", "++-,+++", "--assert-allowed")
    assert code == 1
    assert "allowed: false" in out
    # a mixed word's own size may be given
    assert run(capsys, "stars", "--seq", "++-,+++", "--size", "2",
               "--assert-allowed")[:2] == (code, out)

    code, out, _ = run(capsys, "period", "--seq", "(+)*", "--ball", "16",
                       "--max-norm", "2", "--assert-none")
    assert code == 0
    assert "periods: none" in out

    code, out, _ = run(capsys, "period", "--seq", "(+)*", "--ball", "16",
                       "--max-norm", "2", "--layer", "1")
    assert code == 0
    assert "period 2 0" in out


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as info:
        main(["matrix"])  # missing --word
    assert info.value.code == 2
    code, _, err = run(capsys, "generate", "--seq", "(+)*", "--out", "/nonexistent/x.pat",
                       "--size", "2")
    assert code == 2 and "error" in err


def test_byte_identical_outputs_and_threads(tmp_path, capsys):
    outs = []
    for threads in ("1", "3"):
        f = tmp_path / f"t{threads}.pat"
        run(capsys, "generate", "--seq", "(+-)*", "--size", "4",
            "--threads", threads, "--out", str(f))
        outs.append(f.read_bytes())
    assert outs[0] == outs[1]

    code1, out1, _ = run(capsys, "spectrum", "--word", "++--")
    code2, out2, _ = run(capsys, "spectrum", "--word", "++--")
    assert (code1, out1) == (code2, out2)


@pytest.mark.parametrize("argv", [
    ["generate", "--seq", "abc", "--out", "x.pat"],
    ["matrix", "--word", "+x"],
    ["density", "--word", "+", "--seed", "9"],
    ["density", "--word=--"],
    ["generate", "--seq", "(+)*", "--size", "-1", "--out", "x.pat"],
    ["generate", "--seq", "(+)*", "--out", "x.pat"],
    ["generate", "--seq", "++-,+++", "--ball", "4", "--out", "x.pat"],
    ["verify", "--seq", "(+)*"],
    ["verify"],
    ["verify", "--random", "1", "--length", "0"],
    ["verify", "--seq", "++", "--random", "-3"],
    ["verify", "--seq", "++", "--threads", "0"],
    ["period", "--seq", "(+)*", "--ball", "16", "--max-norm", "0"],
    ["period", "--seq", "(+)*", "--ball", "16", "--layer", "-1"],
    ["generate", "--seq", "(+)*", "--size", "2", "--threads", "0", "--out", "x.pat"],
    ["reconstruct", "--in", "x.til", "--margin", "-1"],
    ["density", "--word", "+", "--steps", "0"],
    ["stars", "--seq", "(+)*", "--size", "3", "--ball", "4"],
    ["stars", "--seq", "++-,+++", "--size", "9"],
    ["period", "--seq", "(+)*", "--ball", "24", "--max-norm", "2", "--layer", "40",
     "--assert-none"],
    ["stars", "--seq", "(+)*", "--size", "2", "--threads", "2"],
    ["verify", "--seq", "++", "--methods", "closed,closed"],
    ["verify", "--seq", "++", "--methods", "unfold,closed,unfold"],
])
def test_malformed_argv_exits_two(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len([ln for ln in err.splitlines() if "error:" in ln]) == 1
    assert not (tmp_path / "x.pat").exists()


def test_negative_matrix_power_exits_two():
    # in a subprocess: a matrix power loop that never ends must fail, not hang
    env = dict(os.environ, PYTHONPATH=str(Path(trifold.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-m", "trifold.cli", "matrix", "--word", "+",
                           "--power", "-1"], capture_output=True, text=True, env=env,
                          timeout=30)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert len([ln for ln in proc.stderr.splitlines() if "error:" in ln]) == 1


def _limit_address_space():
    # runs in the child only: about 1 GB of address space for its own process
    import resource
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize("argv", [
    ["verify", "--seq=" + "+" * 16],
    ["generate", "--seq=(+)*", "--size", "16", "--out", "x.pat"],
])
def test_a_window_too_large_for_memory_exits_two(tmp_path, argv):
    env = dict(os.environ, PYTHONPATH=str(Path(trifold.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-m", "trifold.cli", *argv], capture_output=True,
                          text=True, env=env, cwd=tmp_path, preexec_fn=_limit_address_space,
                          timeout=60)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines() == [
        "error: out of memory; try a smaller window or a shorter word"]
    assert not (tmp_path / "x.pat").exists()


def _tiling_inputs(tmp_path, capsys):
    pat = tmp_path / "p.pat"
    run(capsys, "generate", "--seq", "(+)*", "--ball", "6", "--out", str(pat))
    from trifold.patternio import write_tiling
    from trifold.tiling import to_tiling
    patch, seq = read_pattern(pat.read_text())
    return pat, write_tiling(to_tiling(patch), seq, patch.region).splitlines()


def test_files_contradicting_their_region_exit_two(tmp_path, capsys):
    pat, lines = _tiling_inputs(tmp_path, capsys)
    bad_header = tmp_path / "h.til"
    bad_header.write_text("\n".join([*lines[:2], "region nonsense", *lines[3:]]) + "\n")
    outside = tmp_path / "o.til"
    outside.write_text("\n".join([*lines, "P 40 40 3"]) + "\n")
    for til in (bad_header, outside):
        code, out, err = run(capsys, "reconstruct", "--in", str(til), "--ref", str(pat))
        assert code == 2 and "reconstructed" not in out
        assert len([ln for ln in err.splitlines() if "error:" in ln]) == 1

    stray = tmp_path / "s.pat"
    stray.write_text(pat.read_text() + "1 999 999 red\n")
    code, _, err = run(capsys, "render", "--in", str(stray), "--svg", str(tmp_path / "s.svg"))
    assert code == 2 and "error:" in err
    assert not (tmp_path / "s.svg").exists()


def test_repeated_records_exit_two(tmp_path, capsys):
    pat, lines = _tiling_inputs(tmp_path, capsys)
    text = pat.read_text()
    first = text.splitlines()[3]
    twice = tmp_path / "twice.pat"
    twice.write_text(text + first + "\n")
    code, _, err = run(capsys, "render", "--in", str(twice), "--svg", str(tmp_path / "t.svg"))
    assert code == 2 and "repeats an earlier record" in err
    assert not (tmp_path / "t.svg").exists()

    tile = next(ln for ln in lines[3:] if ln.split()[3] == "3")
    kind, p, q, _ = tile.split()
    til = tmp_path / "twice.til"
    til.write_text("\n".join([*lines, f"{kind} {p} {q} 0"]) + "\n")
    code, out, err = run(capsys, "reconstruct", "--in", str(til), "--ref", str(pat))
    assert code == 2 and "reconstructed" not in out
    assert len([ln for ln in err.splitlines() if "error:" in ln]) == 1


def test_malformed_seq_header_exits_two(tmp_path, capsys):
    pat, lines = _tiling_inputs(tmp_path, capsys)
    bad_pat = tmp_path / "bad.pat"
    head, _, *rest = pat.read_text().splitlines()
    bad_pat.write_text("\n".join([head, "seqX(+)*", *rest]) + "\n")
    code, _, err = run(capsys, "render", "--in", str(bad_pat), "--svg", str(tmp_path / "b.svg"))
    assert code == 2 and "error:" in err
    assert not (tmp_path / "b.svg").exists()

    til = tmp_path / "bad.til"
    til.write_text("\n".join([lines[0], "seqX(+)*", *lines[2:]]) + "\n")
    code, out, err = run(capsys, "reconstruct", "--in", str(til), "--ref", str(pat))
    assert code == 2 and "reconstructed" not in out
    assert len([ln for ln in err.splitlines() if "error:" in ln]) == 1


def test_files_that_are_not_utf8_exit_two(tmp_path, capsys):
    pat, lines = _tiling_inputs(tmp_path, capsys)
    head, _, *rest = pat.read_bytes().split(b"\n")
    bad_pat = tmp_path / "bad.pat"
    bad_pat.write_bytes(b"\n".join([head, b"seq \xff", *rest]))
    code, _, err = run(capsys, "render", "--in", str(bad_pat), "--svg", str(tmp_path / "b.svg"))
    assert code == 2 and err == "error: line 2: not UTF-8 text (byte 0xff)\n"
    assert not (tmp_path / "b.svg").exists()

    til = tmp_path / "bad.til"
    til.write_bytes(b"\n".join([lines[0].encode(), b"seq \xff", *map(str.encode, lines[2:])])
                    + b"\n")
    code, out, err = run(capsys, "reconstruct", "--in", str(til), "--ref", str(pat))
    assert code == 2 and "reconstructed" not in out
    assert err == "error: line 2: not UTF-8 text (byte 0xff)\n"


def test_reconstruct_failure_names_a_tiling_record(tmp_path, capsys):
    # one count near the center swapped 1 <-> 2: reconstruct exits 1 and
    # names the tile it caught the way the file's records name tiles
    pat, lines = _tiling_inputs(tmp_path, capsys)
    at = next(i for i, ln in enumerate(lines) if i > 2 and ln.split()[3] in ("1", "2")
              and abs(int(ln.split()[1])) + abs(int(ln.split()[2])) <= 2)
    kind, p, q, count, slot = lines[at].split()
    til = tmp_path / "bad.til"
    til.write_text("\n".join([*lines[:at], f"{kind} {p} {q} {3 - int(count)} {slot}",
                              *lines[at + 1:]]) + "\n")
    code, out, _ = run(capsys, "reconstruct", "--in", str(til))
    assert code == 1
    match = re.fullmatch(r"reconstruction failed: tile ([PN] -?\d+ -?\d+): .*\n", out)
    assert match, out
    assert any(ln.startswith(match[1] + " ") for ln in til.read_text().splitlines()[3:])


@pytest.mark.parametrize("records, want", [
    ("region ball 100000000\nP 0 0 3\n", "reconstructed 3 segments\n"),
    ("P 0 0 3\nP 1000000000 0 0\n", "reconstructed 6 segments\n"),
])
def test_reconstruct_memory_follows_the_records(records, want, tmp_path, capsys):
    # a huge region header, or two tiles 10^9 apart on one row, must not
    # size the segment layout: it covers the sides of the records alone
    til = tmp_path / "sparse.til"
    til.write_text("trifold-tiling v1\nseq x\n" + records)
    tracemalloc.start()
    try:
        result = run(capsys, "reconstruct", "--in", str(til))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result == (0, want, "")
    assert peak < 4_000_000


def test_window_outputs_are_pinned(tmp_path, monkeypatch, capsys):
    # tests/data/window_cli.json: exit code, stdout and sha256 of every
    # written file for generate, render, stars and period, run in order
    # in one directory
    cases = json.loads((Path(__file__).parent / "data" / "window_cli.json").read_text())
    monkeypatch.chdir(tmp_path)
    for case in cases:
        code, out, _ = run(capsys, *case["command"].split())
        assert (code, out) == (case["exit"], case["stdout"]), case["command"]
        for name, digest in case["files"].items():
            assert hashlib.sha256(Path(name).read_bytes()).hexdigest() == digest, case["command"]
    # the finite word's file in full: its boundary records are unknown
    pinned = (Path(__file__).parent / "data" / "finite_+-+.pat").read_text()
    assert Path("finite.pat").read_text() == pinned
    assert pinned.endswith("3 3 2 unknown *\n")


def _pinned_outputs():
    """(argv, stdout) pairs from tests/data/spectral_cli.txt: each `$ `
    line is a command and the lines after it are its stdout."""
    text = (Path(__file__).parent / "data" / "spectral_cli.txt").read_text()
    cases = []
    for block in text.split("$ ")[1:]:
        command, _, out = block.partition("\n")
        cases.append(pytest.param(command.split(), out, id=command))
    return cases


@pytest.mark.parametrize("argv, expected", _pinned_outputs())
def test_spectral_outputs_are_pinned(argv, expected, capsys):
    # entries print as `3` and `3/16`, never `3/1` or a float
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == expected
