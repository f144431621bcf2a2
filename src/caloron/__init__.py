"""Desk-scale toolkit for the product-case caloron correspondence.

Modules:
  symbolic   exact expansion and closed formulas for caloron class integrands
  lattice    periodic grids, U(1)/SU(2) arithmetic, forms, links, samples
  transform  the connection/Higgs correspondence and curvature decomposition
  chernweil  invariant polynomials, fiber integration, caloron classes
  universal  graph model of the universal connection and its curvature
  scene      flat key = value scene configs, report checks and report hashes
  serialize  JSON documents for grids, product connections and (A, Phi) pairs
  errors     the exception types the CLI maps to exit codes
  cli        the `caloron` command-line front end
"""

__version__ = "0.1.0"
