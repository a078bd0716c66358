"""Probabilistic solver for semilinear parabolic PIDEs and obstacle problems.

Forward jump-diffusion simulation, least-squares backward induction for the
associated backward equations with jumps, penalization for the reflected
case, and independent finite-difference / closed-form oracles.
"""

from .bsde import (BsdeSolution, LocalAffineBasis, PolynomialBasis,
                   check_apriori_estimate, check_z_representation, evaluate_u,
                   make_basis, solve_bsde)
from .errors import SolverError
from .forward import (PathBundle, TimeGrid, check_flow_property, moment_report,
                      simulate_paths, tangent_flow)
from .model import (DriverSpec, JumpMeasure, ModelSpec, ObstacleSpec,
                    WeightFunction, discount_driver, named_model, scalar_model,
                    zero_driver)
from .normcheck import gauss_legendre_panels, norm_ratio, spacetime_norm_ratio
from .obstacle import (ReflectedSolution, ReflectionMeasureEstimate,
                       estimate_reflection_measure, skorokhod_gap,
                       solve_penalized, solve_reflected, support_check)
from .oracle import (FdGrid, binomial_american, black_scholes, fd_solve_pide,
                     merton_price)
from .runner import Report, run_experiment

__version__ = "0.1.0"
