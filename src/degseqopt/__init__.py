"""Extremal domination and independence numbers over degree-sequence realizations.

Each module's ``__all__`` is the one list of what it exports; the package
re-exports exactly their union.
"""

from . import bipartite, errors, extremal, graphs, oracle, realize, sequences, solvers
from .bipartite import *
from .errors import *
from .extremal import *
from .graphs import *
from .oracle import *
from .realize import *
from .sequences import *
from .solvers import *

__version__ = "0.1.0"

__all__ = sorted(
    name
    for module in (bipartite, errors, extremal, graphs, oracle, realize, sequences, solvers)
    for name in module.__all__
)
