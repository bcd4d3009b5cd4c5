"""Invariant Einstein metrics on full flag manifolds K/T: exact root-system
data, Ricci curvature, Groebner-based case analysis, certified real-root
isolation, and a numeric multi-start oracle.

The package exports nothing; the ``flagein`` command (``flagein.cli``) is
its entry point, and code imports the submodules directly."""
