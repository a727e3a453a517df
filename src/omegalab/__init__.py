"""omegalab: exact absorbing-degree and content-ideal computations on
finite commutative rings, their polynomial extensions, and the integers.

The entry points live in their layer's module: ring construction and
spec parsing in ``omegalab.rings``, the ideal lattice in
``omegalab.ideals``, the absorbing scans in ``omegalab.absorbing``,
polynomials in ``omegalab.polys``, the content checks in
``omegalab.content_checks``, the integer leg in ``omegalab.integers`` and
the command line in ``omegalab.cli``. Ring elements are named only by
their index.
"""

__version__ = "0.1.0"
