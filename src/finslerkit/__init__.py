"""Workbench for (alpha,beta)-metric Finsler spaces.

Evaluates the pointwise tensors of the power-quotient metric
F = (alpha+beta)^(k+1)/alpha^k (and related families), audits every closed
form against independent differentiation oracles, classifies level
hypersurfaces as hyperplanes of the first/second/third kind, and computes
geodesics by direct arc-length minimization.
"""

__version__ = "0.1.0"
