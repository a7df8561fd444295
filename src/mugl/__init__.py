"""Graph learning from smooth signals under moment uncertainty.

The package learns a graph Laplacian by minimizing the worst case of the
Laplacian quadratic risk over an uncertainty region around the empirical
signal moments, by projected Newton-CG on the edge-weight simplex.
Callers import the submodules (harness, solvers, objective, ...) directly.
"""

__version__ = "0.1.0"
