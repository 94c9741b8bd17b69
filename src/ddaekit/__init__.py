"""Delay differential-algebraic equations from hybrid substructuring.

Structural analysis of matrix pencils, coupling of descriptor subsystems,
classification of delay systems, and a method-of-steps time integrator.
"""

from .errors import (DdaeError, DataError, IllConditioned, InadmissibleHistory,
                     InconsistentInitialState, NewtonDivergence, ShapeError,
                     SingularPencil)
from .forcing import SymbolicSignal
from .lti import (LinearDdae, LtiDescriptor, classify_linear, couple,
                  hybrid_shifted, regularity_theorem_check,
                  sf_model_from_linear)
from .pencil import (MatrixPencil, PencilReport, WeierstrassForm, analyze,
                     equivalence_residual, is_regular, weierstrass)
from .radau import (IntegrationOptions, SegmentProblem, SegmentSolution,
                    integrate_segment)
from .sfdae import Classification, SfDdaeModel, admissible, classify
from .steps import Trajectory, evaluate, solve_itp

__all__ = [
    "DdaeError", "DataError", "IllConditioned", "InadmissibleHistory",
    "InconsistentInitialState", "NewtonDivergence", "ShapeError",
    "SingularPencil",
    "SymbolicSignal",
    "MatrixPencil", "PencilReport", "WeierstrassForm", "analyze",
    "equivalence_residual", "is_regular", "weierstrass",
    "LinearDdae", "LtiDescriptor", "classify_linear", "couple",
    "hybrid_shifted", "regularity_theorem_check", "sf_model_from_linear",
    "IntegrationOptions", "SegmentProblem", "SegmentSolution",
    "integrate_segment",
    "Classification", "SfDdaeModel", "admissible", "classify",
    "Trajectory", "evaluate", "solve_itp",
]

__version__ = "0.1.0"
