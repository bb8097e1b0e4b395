"""Engine profiles: the two XQuery processors of the paper's experiments.

* :class:`Engine` — models MonetDB/XQuery: compiled query plans are
  cached (the *function cache*, section 3.3), ``execute at`` calls
  inside loops are shipped as **Bulk RPC** (loop-lifting, section 3.2).
* :class:`TreeEngine` — models Saxon: a tree-walking engine with no plan
  cache (every request pays compilation) and no native XRPC support; it
  participates in distributed queries only through the XRPC wrapper
  (section 4).

Both run the same XQuery evaluator underneath — the paper's point is
that XRPC is engine-agnostic; what differs is caching, bulk behaviour
and cost profile, fixed per class: a profile has no constructor
options.
"""

from repro.engine.base import Engine, TreeEngine

__all__ = ["Engine", "TreeEngine"]
