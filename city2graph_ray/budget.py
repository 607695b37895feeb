"""The one driver-memory budget behind every driver-or-distributed gate.

A gate whose small branch holds a whole table in one process (a
driver ``to_pandas()``/numpy kernel, a driver-held node vector, or a
single ``ray.remote`` task) takes that branch only when the bytes it
would allocate, scratch included, fit :data:`DRIVER_BYTES`; anything
larger runs the distributed branch.  Raise the constant with driver RAM.
"""

DRIVER_BYTES = 100 * 2**20


def fits_driver(nbytes: float) -> bool:
    """True when a one-process branch allocating ``nbytes`` fits."""
    return nbytes <= DRIVER_BYTES
