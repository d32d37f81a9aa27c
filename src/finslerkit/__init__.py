"""Workbench for (alpha,beta)-metric Finsler spaces.

Evaluates the pointwise tensors of the power-quotient metric
F = (alpha+beta)^(k+1)/alpha^k (and related families), audits every closed
form against independent differentiation oracles, classifies level
hypersurfaces as hyperplanes of the first/second/third kind, and computes
geodesics by direct arc-length minimization.
"""

__version__ = "0.1.0"

from .classifier import ClassificationReport, ClassifyOptions, classify
from .config import RunConfig, load_config
from .expr import DomainError, Expr, ExprSyntaxError, diff, parse
from .geodesic import GeodesicResult, minimize, polyline_length
from .hypersurface import HypersurfaceFrame, LevelSurface, chart_at, frame_at
from .metric import (
    FAMILIES,
    FlagPoint,
    PhiPartials,
    SpaceSpec,
    flag_point,
    phi_partials,
    sample_flags,
    validity_check,
)
from .numerics import Jet2, SecondOrderJet, fd_hessian, jet_eval, least_squares, pd_check
from .tensors import AuditReport, TensorBundle, audit_flag, audit_sweep, bundle_at

__all__ = [
    "AuditReport",
    "ClassificationReport",
    "ClassifyOptions",
    "DomainError",
    "Expr",
    "ExprSyntaxError",
    "FAMILIES",
    "FlagPoint",
    "GeodesicResult",
    "HypersurfaceFrame",
    "Jet2",
    "LevelSurface",
    "PhiPartials",
    "RunConfig",
    "SecondOrderJet",
    "SpaceSpec",
    "TensorBundle",
    "audit_flag",
    "audit_sweep",
    "bundle_at",
    "chart_at",
    "classify",
    "diff",
    "fd_hessian",
    "flag_point",
    "frame_at",
    "jet_eval",
    "least_squares",
    "load_config",
    "minimize",
    "parse",
    "pd_check",
    "phi_partials",
    "polyline_length",
    "sample_flags",
    "validity_check",
]
