"""Exact computational geometry of rational normal scrolls and binary curves.

The package computes family dimensions of scrolls and of curves inside
them, parametrizes rational normal curves through frames, interpolates
unisecant curves, degenerates scrolls inside linear systems, builds
gonality pencils on binary curves, and runs seeded randomized searches
for scroll surfaces through canonical binary curves.  All arithmetic is
exact, over the rationals or a prime field; there is no floating point
anywhere.

The modules are the API: import from ``scrollgeom.rnc``,
``scrollgeom.binary_curves`` and the rest.  The package root exports
only ``__version__``.
"""

__version__ = "0.1.0"
