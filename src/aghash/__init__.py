"""Unsupervised graph-network hashing on precomputed feature matrices.

Importing the package loads no submodule, so the CLI can pin BLAS thread
counts before numpy loads.
"""

__version__ = "0.1.0"
