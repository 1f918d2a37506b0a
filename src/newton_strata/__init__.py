"""Newton slope sequences and stratifications of Iwahori double cosets.

Exact truncated Laurent series over GF(p) (series), slope sequences of
twisted linear maps (isocrystal), the extended affine Weyl group with its
coset valuation patterns (affine_weyl), closed-form Newton posets, strata
codimensions, and witness matrices (strata), the block kernel that reads
slopes and pattern tests of many sampled matrices at once (kernel),
Monte-Carlo validation of the closed forms on it (empirics) and a
command-line surface (cli).  Each module's __all__ lists its public names;
the package exports those of the five below and nothing else.
"""

from . import series, isocrystal, affine_weyl, strata, empirics
from .series import *
from .isocrystal import *
from .affine_weyl import *
from .strata import *
from .empirics import *

__version__ = "0.1.0"

__all__ = [*series.__all__, *isocrystal.__all__, *affine_weyl.__all__, *strata.__all__, *empirics.__all__, "__version__"]
