"""Block operator matrices on truncated Fock space.

States of the algebra generated by n isometries with orthogonal ranges,
the slice calculus on their density matrices, and the circle-measure
extension family attached to a product state.

The package re-exports the public names of each module, as listed in that
module's ``__all__``.
"""

__version__ = "0.1.0"

from . import density, errors, fock, measures, product_states, word_algebra
from .density import *
from .errors import *
from .fock import *
from .measures import *
from .product_states import *
from .word_algebra import *

__all__ = ["__version__"] + [
    name
    for module in (errors, word_algebra, fock, density, measures, product_states)
    for name in module.__all__
]
