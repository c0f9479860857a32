"""poslp: gains, stabilization and robustness of linear positive systems,
everything reduced to linear programs solved by the embedded simplex."""

from .lpcore import LinearProgram, LpBuilder, LpSolution, StrictnessPolicy, solve_lp
from .sysmodel import (PositiveLtiSystem, classify, metzler_stable, oracle_gains,
                       random_positive_system, static_gain)
from .gains import gain
from .synthesis import ControllerSpec, stabilize_linf
from .poly import BoxDomain, Poly, PolynomialLtiSystem, polynomial_system
from .lft import LftSystem, delay_lft, lft_from_polynomial
from .ilc import FreePolynomial, SaturatedStaticGain, TimeVaryingDelay, instantiate
from .robust import (exact_constant_delta, grid_certify_gain, robust_gain, robust_stabilize,
                     solve_robust, vertex_gain)
from .handelman import HandelmanBasis, build_upsilon, enumerate_products, relax_full, relax_reduced

__version__ = "0.1.0"
