"""Ranked-choice ballots as ordered structures.

Parse and classify ballots, compute joins, meets and the Hasse diagram,
verify structural claims exhaustively over small candidate sets, build
exact utility representations and concave spatial witnesses, and tabulate
instant-runoff elections including a ballot-length sensitivity experiment.

A name is public exactly when its layer's ``__all__`` lists it; this
package re-exports those lists and declares none of its own.
"""

from .checks import *
from .election import *
from .enumeration import *
from .order import *
from .representation import *

__version__ = "0.1.0"
