"""Triangular paperfolding patterns.

Peak/valley colorings of the triangular grid from folding sequences,
generated three independent ways (closed form per layer, explicit
unfolding, tile substitution), with exact substitution matrices and
spectra, local reconstruction from undecorated tilings, and density
measurements.
"""

from .errors import (
    IncompatibleSequences,
    Inconsistent,
    MalformedLayer,
    NotTriangular,
    OrientationMismatch,
    OutOfRegion,
    ParseError,
    SeamConflict,
    TrifoldError,
    WindowTooSmall,
)
from .folding import Color, FoldingSequence, PatternPatch, ball_patch, color_of_segment, patch, recolor
from .lattice import (
    NEGATIVE,
    POSITIVE,
    BallRegion,
    Line,
    Seg,
    TriRegion,
    Vertex,
    layer_of,
    line_of,
    standard_region,
)
from .substitution import (
    TriangleColoring,
    apply_rule_patch,
    apply_rule_tile,
    compose,
    folding_seed,
    substitution_matrix,
)
from .unfold import unfold_once, unfold_pattern

__version__ = "0.1.0"
