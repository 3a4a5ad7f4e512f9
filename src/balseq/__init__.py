"""Exact tools for the generalized balancing sequences.

B_{k,n} = 3k*B_{k,n-1} + (1-k)*B_{k,n-2} with B_0 = 0, B_1 = 1, and its
companion C_{k,n} with the same recurrence and seeds C_0 = 1, C_1 = 3.
Everything is exact integer / rational arithmetic: four independent term
engines, the classical quadratic identities, divisibility and gcd theorems,
a generating-function expander, and a verifying CLI.

The top level exports what the README's Library section uses; everything
else is imported from its submodule (balseq.engines, balseq.identities,
balseq.divisibility, balseq.verify, ...).
"""

__version__ = "0.1.0"

from .engines import Engine, term_b, term_b_negative
from .ring import SequenceParams

__all__ = [
    "__version__",
    "Engine",
    "SequenceParams",
    "term_b",
    "term_b_negative",
]
