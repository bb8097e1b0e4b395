"""Relational algebra over iter|pos|item tables (Table 1 of the paper).

MonetDB/XQuery represents every XQuery sequence as a relational table
with schema ``pos|item`` (``iter|pos|item`` once loop-lifted), and the
Pathfinder compiler emits plans over a vanilla relational algebra.  This
package implements that algebra:

========  =====================================================
σ         select rows where a boolean column is true
π         project + rename (no duplicate removal)
δ         duplicate elimination
∪         disjoint union
⋈         equi-join
ρ         row numbering (DENSE_RANK), optional partitioning
table     literal table
========  =====================================================

plus the two Pathfinder helpers every real plan needs: ``attach``
(constant column) and ``fun`` (row-wise computed column).

:mod:`repro.algebra.paths` adds the XPath-accelerator axis-step
operator: path steps over ``iter|pos|item`` node tables evaluate as
staircase-pruned window scans over the structural index columns.
"""

from repro.algebra.table import Table
from repro.algebra.paths import axis_step

__all__ = ["Table", "axis_step"]
