"""beamlcp: solvers and certification tools for two-sided contact LCPs.

A beam (or any linearly elastic structure) held between two rigid walls by
stabilizers gives a linear complementarity problem with the block structure
M = [[K, -K], [-K, K]].  This package provides the general complementary
pivoting solver, a structure-exploiting exact active-set solver, a sequential
solver for coupled cascades of such problems, a brute-force enumeration
oracle for certification, a beam-specific model builder, and a CLI.

The package exports exactly the ``__all__`` of the modules it star-imports
below; a name becomes public by being listed in its own module.
"""

from . import beam, cascade, contact, dense, errors, lcp, lemke, oracle
from .beam import *
from .cascade import *
from .contact import *
from .dense import *
from .errors import *
from .lcp import *
from .lemke import *
from .oracle import *

__version__ = "0.1.0"

__all__ = ["__version__"] + [
    name
    for module in (beam, cascade, contact, dense, errors, lcp, lemke, oracle)
    for name in module.__all__
]
