"""Output checks for the benchmark's ops, run outside the timed region.

Each check reads what a user would see (stdout, exit code, files) and
returns None when the output is right or a one-line reason when it is
wrong.  The generate check compares a seeded sample of records against
``reference_red``, a colorer written here from the paper's rule and not
shared with the package, so a check never rests only on the code that
is being timed.
"""

from __future__ import annotations

import random
import re
from fractions import Fraction


def _v2(n: int) -> int:
    return (n & -n).bit_length() - 1


def _doubled_midpoint(d: int, p: int, q: int) -> tuple[int, int, int]:
    """Twice the three line functionals at the midpoint of segment (d, p, q).

    A vertex (p, q) has functionals (1 - 3q, 3(p + q) - 2, 1 - 3p); the
    segment joins (p, q) to (p+1, q), (p+1, q-1) or (p, q+1) for d = 1, 2, 3.
    """
    ep, eq = ((1, 0), (1, -1), (0, 1))[d - 1]

    def f(pp, qq):
        return (1 - 3 * qq, 3 * (pp + qq) - 2, 1 - 3 * pp)

    a, b = f(p, q), f(p + ep, q + eq)
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2])


def reference_red(d: int, p: int, q: int, fold) -> bool:
    """Closed-form color by search: red iff the segment's layer triangle is
    positive XOR its layer k is even XOR fold(k) is a folding down.

    The layer-k lines of each direction have values s*t with s = 2^(k-1),
    t odd and s*t = 1 (mod 3); the layer triangle is the unique triple of
    such lines summing to +3s (positive, {f <= v}) or -3s (negative,
    {f >= v}) that has the segment's midpoint inside its side d.
    """
    mids = _doubled_midpoint(d, p, q)
    v = mids[d - 1] // 2
    k = _v2(v) + 1
    s = 1 << (k - 1)
    others = [j for j in range(3) if j != d - 1]
    cands = []
    for j in others:
        centre = mids[j] // (2 * s)
        cands.append([s * t for t in range(centre - 8, centre + 9)
                      if t % 2 and (s * t) % 3 == 1])
    found = []
    for x in cands[0]:
        for y in cands[1]:
            total = v + x + y
            mj, ml = mids[others[0]], mids[others[1]]
            if total == 3 * s and mj < 2 * x and ml < 2 * y:
                found.append(True)
            elif total == -3 * s and mj > 2 * x and ml > 2 * y:
                found.append(False)
    if len(found) != 1:
        raise ValueError(f"segment ({d},{p},{q}): {len(found)} layer triangles")
    return found[0] ^ (k % 2 == 0) ^ (fold(k) == "-")


def periodic_fold(word: str):
    return lambda k: word[(k - 1) % len(word)]


REFERENCE_SAMPLES = 200
_RECORD = re.compile(r"(\d) (-?\d+) (-?\d+) (red|blue)( \*)?")


def check_generate(out: str, text: str, side: int | None, word: str,
                   rng: random.Random) -> str | None:
    """Pattern file from ``generate``: record count, byte-exact round trip,
    and a seeded sample of records against the reference colorer."""
    from trifold.patternio import read_pattern, write_pattern

    lines = text.splitlines()
    records = lines[3:]
    m = re.fullmatch(r"wrote .*: (\d+) segments\n", out)
    if m is None or int(m.group(1)) != len(records):
        return f"stdout {out!r} does not match {len(records)} records"
    if side is not None and len(records) != 3 * side * (side + 1) // 2:
        return f"{len(records)} segments, want {3 * side * (side + 1) // 2}"
    patch, seq = read_pattern(text)
    if write_pattern(patch, seq) != text:
        return "pattern file does not round-trip byte for byte"
    fold = periodic_fold(word)
    for rec in rng.sample(records, min(REFERENCE_SAMPLES, len(records))):
        r = _RECORD.fullmatch(rec)
        if r is None:
            return f"bad record {rec!r}"
        red = reference_red(int(r.group(1)), int(r.group(2)), int(r.group(3)), fold)
        if red != (r.group(4) == "red"):
            return f"record {rec!r} disagrees with the reference colorer"
    return None


def check_render(svg: str, pattern_text: str) -> str | None:
    interior = sum(1 for ln in pattern_text.splitlines()[3:]
                   if not ln.endswith(" *"))
    lines = svg.count("<line ")
    if lines != interior:
        return f"{lines} SVG lines for {interior} interior segments"
    return None


def check_stars(out: str) -> str | None:
    return None if out.endswith("allowed: true\n") else "stars not all allowed"


def check_verify(out: str, methods: int) -> str | None:
    lines = out.splitlines()
    if len(lines) != methods - 1 or not all(ln.endswith(": ok") for ln in lines):
        return f"verify printed {lines!r}"
    return None


def check_density(out: str, steps: int) -> str | None:
    lines = out.splitlines()
    if len(lines) != steps + 1:
        return f"{len(lines)} lines for {steps} steps"
    vec = None
    for n, line in enumerate(lines[:-1], start=1):
        head, *vals = line.split()
        vec = [Fraction(x) for x in vals]
        if head != f"n={n}" or len(vec) != 8:
            return f"bad density line {line!r}"
        if min(vec) < 0 or sum(vec) != 1:
            return f"n={n}: vector is not a distribution"
    dev = max(abs(x - Fraction(1, 8)) for x in vec)
    if lines[-1] != f"max_deviation {dev}":
        return f"{lines[-1]!r} disagrees with max deviation {dev}"
    return None


def check_spectrum(out: str, word: str) -> str | None:
    k = len(word)
    want = (4 ** k, 2 ** k, (-2) ** k, (-2) ** k, 1, 1, 0, 0)
    lines = out.splitlines()
    if "eigenvalues: " + " ".join(map(str, want)) not in lines:
        return f"eigenvalues are not {want}"
    for name in ("pf_eigenvector", "unit_eigenvectors", "kernel_vectors"):
        if f"{name}: ok" not in lines:
            return f"{name} check is not ok"
    return None


def check_reconstruct(out: str) -> str | None:
    m = re.search(r"^reference match: (\d+)/(\d+)$", out, re.M)
    if m is None or m.group(1) != m.group(2) or int(m.group(2)) == 0:
        return f"reconstruct printed {out!r}"
    return None


def check_period(out: str, layer: int) -> str | None:
    if not layer:
        return None if out == "periods: none\n" else f"periods found: {out!r}"
    for line in out.splitlines():
        m = re.fullmatch(r"period (-?\d+) (-?\d+)", line)
        if m:
            a, b = int(m.group(1)), int(m.group(2))
            if a * a + a * b + b * b == 4:
                return None
    return f"no norm-2 survivor on layer {layer}: {out!r}"
