"""The benchmark's four workloads as lists of CLI ops.

An op is one ``trifold.cli.main(argv)`` call, exactly what a user types,
plus the untimed check of what it printed and wrote.  The workload seed
picks which folding sequences, words and tile seeds are used; it never
changes a size, so every seed asks for the same amount of work.

Why each workload exists (BENCHMARK.json repeats this in one line each):

- ``window``: the heavy path users run.  The fused ``folding.patch``
  loop, ``patternio`` write and read and the ``analysis`` star
  histograms dominate, and the threaded per-segment path is included.
- ``oracle``: the three-generator cross-check.  ``unfold`` and
  ``substitution`` do about 90% of the work and the closed form little,
  so a faster closed form should not move it.
- ``spectra``: exact 8x8 linear algebra only; no window is built.  It
  keeps the known ``density --word=--`` failure (argparse reads ``--``
  as the end of options) as two failed ops per pass.
- ``mld``: ball windows, tilings and reads: ``folding.ball_patch``,
  ``tiling.reconstruct`` and ``analysis.period_check``, with
  ``patternio`` mostly reading.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks

NAMES = ("window", "oracle", "spectra", "mld")


@dataclass
class Op:
    command: str
    argv: list[str]
    writes: tuple[Path, ...]
    check: Callable[[str], str | None]  # stdout -> None, or why it is wrong


def _word(rng: random.Random, n: int) -> str:
    return "".join(rng.choice("+-") for _ in range(n))


def _check_rng(seed: int, index: int) -> random.Random:
    return random.Random(f"{seed}/{index}")


def window(seed: int, rng: random.Random, work: Path) -> list[Op]:
    ops: list[Op] = []
    for i, n in enumerate((2, 3, 4)):
        word = _word(rng, n)
        seq = f"--seq=({word})*"
        big, small, svg = (work / f"w{i}-9.pat", work / f"w{i}-8.pat",
                           work / f"w{i}-8.svg")
        crng = _check_rng(seed, i)
        ops += [
            Op("generate", ["generate", seq, "--size", "9", "--out", str(big)], (big,),
               lambda out, f=big, w=word, r=crng:
               checks.check_generate(out, f.read_text(), 512, w, r)),
            Op("generate", ["generate", seq, "--size", "8", "--threads", "2",
                            "--out", str(small)], (small,),
               lambda out, f=small, w=word, r=crng:
               checks.check_generate(out, f.read_text(), 256, w, r)),
            Op("stars", ["stars", seq, "--size", "8"], (), checks.check_stars),
            Op("render", ["render", "--in", str(small), "--svg", str(svg)], (svg,),
               lambda out, f=small, s=svg:
               checks.check_render(s.read_text(), f.read_text())),
        ]
    return ops


def oracle(seed: int, rng: random.Random, work: Path) -> list[Op]:
    words = [_word(rng, 7) for _ in range(16)]
    pairs = set(rng.sample(range(16), 4))
    ops = []
    for i, word in enumerate(words):
        argv = ["verify", f"--seq={word}"]
        methods = 3
        if i in pairs:
            argv += ["--methods", "closed,unfold"]
            methods = 2
        ops.append(Op("verify", argv, (),
                      lambda out, m=methods: checks.check_verify(out, m)))
    return ops


def spectra(seed: int, rng: random.Random, work: Path) -> list[Op]:
    words = ["".join(w) for n in (1, 2, 3) for w in itertools.product("+-", repeat=n)]
    ops = []
    for tile in sorted(rng.sample(range(1, 9), 2)):
        for word in words:
            ops.append(Op("density", ["density", f"--word={word}", "--steps", "12",
                                      "--seed", str(tile)], (),
                          lambda out: checks.check_density(out, 12)))
    for i in range(40):
        word = _word(rng, 6 + i % 3)
        ops.append(Op("spectrum", ["spectrum", f"--word={word}"], (),
                      lambda out, w=word: checks.check_spectrum(out, w)))
    return ops


def mld(seed: int, rng: random.Random, work: Path) -> list[Op]:
    """The ``.til`` inputs are written here, before any timing."""
    from trifold import folding, patternio, tiling

    ops = []
    # largest first: tracemalloc peaks are taken on a command's first op
    for i, radius in enumerate((48, 40, 32)):
        seq = f"({_word(rng, 2 + i)})*"
        pat, til = work / f"m{i}.pat", work / f"m{i}.til"
        patch = folding.ball_patch(folding.FoldingSequence.parse(seq), radius)
        til.write_text(patternio.write_tiling(tiling.to_tiling(patch), seq, patch.region))
        ops += [
            Op("generate", ["generate", f"--seq={seq}", "--ball", str(radius),
                            "--out", str(pat)], (pat,),
               lambda out, f=pat, w=seq[1:-2], r=_check_rng(seed, i):
               checks.check_generate(out, f.read_text(), None, w, r)),
            Op("reconstruct", ["reconstruct", "--in", str(til), "--ref", str(pat),
                               "--margin", "4"], (), checks.check_reconstruct),
            Op("period", ["period", f"--seq={seq}", "--ball", "64", "--max-norm", "8"],
               (), lambda out: checks.check_period(out, 0)),
            Op("period", ["period", f"--seq={seq}", "--ball", "24", "--max-norm", "2",
                          "--layer", "1"], (), lambda out: checks.check_period(out, 1)),
        ]
    return ops


def build(name: str, seed: int, work: Path) -> list[Op]:
    rng = random.Random(f"{name}/{seed}")
    return {"window": window, "oracle": oracle, "spectra": spectra, "mld": mld}[name](
        seed, rng, work)
