"""hp-adaptive cG/dG time stepping with a posteriori blow-up detection.

The public surface is declared once, by the ``__all__`` of each solver
module (``adapt``, ``estimator``, ``galerkin``, ``poly``, ``problems``):
the package republishes those names and no others, and its own
``__all__`` is their concatenation.  Any other name of a module stays
importable from the module itself.  The CLI lives in ``cli``, which the
package does not import.
"""

from . import adapt, estimator, galerkin, poly, problems
from .adapt import *
from .estimator import *
from .galerkin import *
from .poly import *
from .problems import *

__version__ = "0.1.0"

__all__ = adapt.__all__ + estimator.__all__ + galerkin.__all__ + poly.__all__ + problems.__all__
