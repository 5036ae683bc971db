"""girardlab: exact symbolic verification of power-sum and colored
Newton-Girard identities.

The package is pure Python and exact throughout: arbitrary-precision
integers, `fractions.Fraction` rationals, and integer-coefficient sparse
polynomials.  See the README for the identity statements and the CLI.
"""

from .exactnum import *
from .poly import *
from .powersum import *
from .digraph import *
from .enumeration import *
from .newton import *
from .involution import *
from . import digraph, enumeration, exactnum, involution, newton, poly, powersum

__version__ = "0.1.0"

__all__ = [
    name
    for module in (exactnum, poly, powersum, digraph, enumeration, newton, involution)
    for name in module.__all__
]
