"""Black-box local inversion of maps on bit vectors.

Given y and an opaque map F on GF(2)^n, iterate F from y, fit the
shortest linear recurrence of the resulting sequence, and read the
preimage of y on its own orbit straight out of the recurrence
coefficients.  Wider-output maps invert through sliding projection
windows.  Everything here is desk scale: the point is to study when
sequences have low linear complexity, with brute-force oracles checking
every answer.
"""

from .embedding import invert_embedding
from .engine import BlackBoxMap, InversionReport, local_inversion
from .gf2 import BitVec, Gf2Poly

__version__ = "0.1.0"

__all__ = [
    "BitVec",
    "BlackBoxMap",
    "Gf2Poly",
    "InversionReport",
    "invert_embedding",
    "local_inversion",
    "__version__",
]
