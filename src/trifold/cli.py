"""Command-line front end.

Exit codes: 0 success, 1 property violation (generator disagreement,
failed reconstruction, disallowed star, surviving period under
--assert-none), 2 usage error.  Output is a pure function of argv;
randomized checks take an explicit --rng-seed (default 0).
"""

from __future__ import annotations

import argparse
import random
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

from . import analysis, folding, patternio, spectral, substitution, tiling, unfold
from .errors import Inconsistent, ParseError, TrifoldError
from .folding import BLUE_CODE, NO_COLOR, RED_CODE, FoldingSequence, PatternPatch, combine
from .lattice import layer_of


def _folding_text(text: str) -> str:
    """argparse type for --seq: a folding word or a mixed word."""
    try:
        if "," in text:
            unfold.parse_mixed_word(text)
        else:
            FoldingSequence.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return text


def _word(text: str) -> str:
    """argparse type for --word and verify's --seq: a nonempty word over {+, -}."""
    if not text or any(c not in "+-" for c in text):
        raise argparse.ArgumentTypeError(f"{text!r} is not a word over + and -")
    return text


def _int_at_least(low: int, what: str):
    """argparse type for an integer option that must be at least ``low``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(f"{text!r} is not a {what} integer")
        return value
    return parse


_nonnegative_int = _int_at_least(0, "nonnegative")
_positive_int = _int_at_least(1, "positive")


def _read_file(path: str) -> str:
    """A pattern or tiling file's text, read as UTF-8; bytes that do not
    decode are a ParseError on the line that holds them."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text (byte 0x{data[exc.start]:02x})",
                         data.count(b"\n", 0, exc.start) + 1) from None


def _colored_patch(seq_text: str, size: int | None,
                   ball: int | None) -> tuple[PatternPatch, str]:
    if "," in seq_text:
        folds = unfold.parse_mixed_word(seq_text)
        if ball is not None:
            raise TrifoldError("mixed foldings render on triangle windows only")
        if size not in (None, len(folds)):
            raise TrifoldError(f"--size {size} does not match the {len(folds)} folds "
                               f"of the mixed word")
        return unfold.unfold_pattern(folds), seq_text
    seq = FoldingSequence.parse(seq_text)
    if ball is not None:
        return folding.ball_patch(seq, ball), str(seq)
    if size is None:
        if not seq.finite:
            raise TrifoldError("periodic sequences need --size or --ball")
        size = len(seq.word)
    return folding.patch(seq, size), str(seq)


def cmd_generate(args) -> int:
    patch, seq = _colored_patch(args.seq, args.size, args.ball)
    text = patternio.write_pattern(patch, seq)
    Path(args.out).write_text(text, encoding="utf-8")
    print(f"wrote {args.out}: {len(patch.colors)} segments")
    return 0


def cmd_render(args) -> int:
    patch, seq = patternio.read_pattern(_read_file(args.infile))
    if args.tiles:
        window = tiling.to_tiling(patch)
        svg = patternio.render_tiling_svg(window)
    else:
        svg = patternio.render_svg(patch)
    Path(args.svg).write_text(svg, encoding="utf-8")
    print(f"wrote {args.svg}")
    return 0


def cmd_matrix(args) -> int:
    m = substitution.substitution_matrix(args.word)
    if args.power != 1:
        m = m.power(args.power)
    for row in m.int_rows():
        print(" ".join(str(x) for x in row))
    return 0


def cmd_spectrum(args) -> int:
    report = spectral.eigen_report(args.word)
    for line in report.lines():
        print(line)
    ok = report.pf_ok and report.unit_ok and report.kernel_ok
    return 0 if ok else 1


def cmd_density(args) -> int:
    vectors = spectral.density_vectors(args.word, args.steps, args.seed)
    for n, vec in enumerate(vectors, start=1):
        print(f"n={n} " + " ".join(str(x) for x in vec))
    dev = max(abs(x - Fraction(1, 8)) for x in vec)
    print(f"max_deviation {dev}")
    return 0


def _cross_check(word: str, methods: list[str]) -> dict[str, PatternPatch]:
    k = len(word)
    build = {
        "closed": lambda: folding.patch(FoldingSequence(word), k),
        "unfold": lambda: unfold.unfold_pattern(unfold.uniform_word(word)),
        "subst": lambda: substitution.compose(word, 1, substitution.folding_seed(k)),
    }
    return {m: build[m]() for m in methods}


def _layers(segs) -> str:
    """A histogram of the segments by layer k, as "k:count" in increasing k."""
    counts = Counter(layer_of(seg) for seg in segs)
    return " ".join(f"{k}:{counts[k]}" for k in sorted(counts))


def cmd_verify(args) -> int:
    words = []
    if args.seq:
        words.append(args.seq)
    if args.random:
        rng = random.Random(args.rng_seed)
        for _ in range(args.random):
            words.append("".join(rng.choice("+-") for _ in range(args.length)))
    if not words:
        print("error: nothing to verify (give --seq or --random)", file=sys.stderr)
        return 2
    methods = args.methods.split(",")
    if (len(methods) < 2 or len(set(methods)) < len(methods)
            or any(m not in ("closed", "unfold", "subst") for m in methods)):
        print(f"error: bad --methods {args.methods!r}", file=sys.stderr)
        return 2
    bad = 0
    for word in words:
        patches = _cross_check(word, methods)
        base = methods[0]
        for other in methods[1:]:
            diff = folding.interior_mismatches(patches[base], patches[other])
            status = "ok"
            if diff:
                status = f"MISMATCH ({len(diff)} segments; layers {_layers(diff)})"
            print(f"{word}: {base} vs {other}: {status}")
            bad += bool(diff)
    return 1 if bad else 0


def cmd_reconstruct(args) -> int:
    window, seq = patternio.read_tiling(_read_file(args.infile))
    stripped = tiling.strip_decoration(window)
    try:
        colors = tiling.reconstruct(stripped)
    except Inconsistent as exc:
        print(f"reconstruction failed: {exc}")
        return 1
    print(f"reconstructed {len(colors)} segments")
    if args.ref:
        ref, _ = patternio.read_pattern(_read_file(args.ref))
        checked, bad = _reference_match(colors, ref, args.margin)
        print(f"reference match: {checked - bad}/{checked}")
        return 1 if bad else 0
    return 0


def _reference_match(colors: tiling.Runs, ref: PatternPatch, margin: int) -> tuple[int, int]:
    """(checked, bad) over the colored segments of the reference's eroded
    interior, one row slice at a time; bad ones are open or differ."""
    checked = matched = 0
    # the eroded region's interior spans lie inside the reference's rows
    spans = ref.region.erode(margin).interior_rows()
    for d, (by_q, rows) in enumerate(zip(spans, ref.colors.rows), start=1):
        for q, (first, stop) in by_q.items():
            f, row = rows[q]
            want = row[first - f:stop - f]
            # want + 3 got: 0 where both are blue, 4 where both are red
            pairs = combine((want, colors.row(d, q, first, stop)), (1, 3), len(want))
            checked += len(want) - want.count(NO_COLOR)
            matched += pairs.count(BLUE_CODE) + pairs.count(4 * RED_CODE)
    return checked, checked - matched


def cmd_stars(args) -> int:
    patch, _ = _colored_patch(args.seq, args.size, args.ball)
    hist = analysis.vertex_star_histogram(patch)
    bad = [star for star in hist if not analysis.star_allowed(star)]
    for star in sorted(hist):
        mark = " DISALLOWED" if star in bad else ""
        print(f"{star} {hist[star]}{mark}")
    print(f"allowed: {'true' if not bad else 'false'}")
    if args.assert_allowed and bad:
        return 1
    return 0


def cmd_period(args) -> int:
    patch, _ = _colored_patch(args.seq, args.size, args.ball)
    if args.layer:
        patch = analysis.filter_layer(patch, args.layer)
    survivors = analysis.period_check(patch, args.max_norm)
    if survivors:
        for a, b in survivors:
            print(f"period {a} {b}")
    else:
        print("periods: none")
    if args.assert_none and survivors:
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trifold",
        description="Triangular paperfolding patterns: generate, verify, analyze.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_window(p):
        p.add_argument("--seq", type=_folding_text, required=True,
                       help='folding sequence: "+-+", "(+-)*", or mixed "++-,+++"')
        window = p.add_mutually_exclusive_group()
        window.add_argument("--size", type=_nonnegative_int, default=None,
                            help="triangle window exponent k (side 2^k)")
        window.add_argument("--ball", type=_nonnegative_int, default=None,
                            help="ball window radius (instead of --size)")

    p = sub.add_parser("generate", help="write a pattern file")
    add_window(p)
    p.add_argument("--out", required=True)
    p.add_argument("--threads", type=_positive_int, default=1,
                   help="accepted for compatibility and ignored")
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("render", help="render a pattern file to SVG")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--svg", required=True)
    p.add_argument("--tiles", action="store_true",
                   help="render the decorated tiling instead of segments")
    p.set_defaults(fn=cmd_render)

    p = sub.add_parser("matrix", help="print the exact substitution matrix")
    p.add_argument("--word", type=_word, required=True)
    p.add_argument("--power", type=_nonnegative_int, default=1)
    p.set_defaults(fn=cmd_matrix)

    p = sub.add_parser("spectrum", help="print the exact eigen report")
    p.add_argument("--word", type=_word, required=True)
    p.set_defaults(fn=cmd_spectrum)

    p = sub.add_parser("density", help="print exact density vectors")
    p.add_argument("--word", type=_word, required=True)
    p.add_argument("--steps", type=_positive_int, default=8)
    p.add_argument("--seed", type=int, choices=range(1, 9), default=1,
                   help="tile class 1..8")
    p.set_defaults(fn=cmd_density)

    p = sub.add_parser("verify", help="cross-check the three generators")
    p.add_argument("--seq", type=_word, default=None, help="finite folding word")
    p.add_argument("--methods", default="closed,unfold,subst")
    p.add_argument("--random", type=_nonnegative_int, default=0,
                   help="also check N random words")
    p.add_argument("--length", type=_positive_int, default=5)
    p.add_argument("--rng-seed", type=int, default=0)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("reconstruct", help="rebuild a pattern from a tiling file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--ref", default=None, help="pattern file to compare against")
    p.add_argument("--margin", type=_nonnegative_int, default=4)
    p.set_defaults(fn=cmd_reconstruct)

    p = sub.add_parser("stars", help="vertex star histogram")
    add_window(p)
    p.add_argument("--assert-allowed", action="store_true")
    p.set_defaults(fn=cmd_stars)

    p = sub.add_parser("period", help="surviving translations")
    add_window(p)
    p.add_argument("--max-norm", type=_positive_int, default=8)
    p.add_argument("--layer", type=_nonnegative_int, default=0,
                   help="restrict the check to one layer (0: all layers)")
    p.add_argument("--assert-none", action="store_true")
    p.set_defaults(fn=cmd_period)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # "--opt=--" skips the type check: argparse drops the "--" and
    # hands over an empty list
    for name, value in vars(args).items():
        if value == []:
            parser.error(f"argument {name}: expected a value, not '--'")
    try:
        return args.fn(args)
    except SystemExit:
        raise
    except TrifoldError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        # the window or word is too large for the memory at hand: a
        # usage limit, not a property violation
        print("error: out of memory; try a smaller window or a shorter word", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
