"""Loop-lifted sequences as ``iter|pos|item`` tables (§3.1 of the paper).

MonetDB/XQuery represents every XQuery sequence as a relational table
with schema ``pos|item`` (``iter|pos|item`` once loop-lifted).
:class:`~repro.algebra.table.Table` is that container and nothing else:
the Pathfinder compiler (:mod:`repro.pathfinder.compiler`) builds each
table it needs in one pass.

:mod:`repro.algebra.paths` holds the operators the compiler runs over
those tables: the XPath-accelerator axis step (staircase-pruned window
scans over the structural index columns), the positional step and
window rank, the equality probe and the ``contains`` prefilter.
"""

from repro.algebra.table import Table
from repro.algebra.paths import axis_step

__all__ = ["Table", "axis_step"]
