"""Placeholder for the removed per-tenant manager facade.

One :class:`~repro.core.manager.PBoxManager` supervises every pBox of
an application, as in the paper (Sections 4.3-4.4).  The per-tenant
shard facade that used to live here made the same decisions as that
one manager at every point of the scale sweep, so it was removed.

The class name stays because the benchmark's layer tracer
(``bench/layers.py``) imports it at module load and times every method
it defines as the ``core.shards`` layer.  With no methods, that layer
reads zero calls.  Delete this module together with that layer when the
benchmark definition next changes.
"""


class ShardedPBoxManager:
    """Method-less stand-in; see the module docstring."""
