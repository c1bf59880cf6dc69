"""Boundary-layer determinants for planar Dirichlet obstacles: the
determinant Xi(lambda) = log det(Q Qtilde^{-1}), the relative Krein spectral
shift, relative traces including the Casimir energy, and pointwise relative
resolvent kernels, with an independent partial-wave oracle."""

from .energy import (EnergyResult, QuadConfig, SmoothFunctionSpec,
                     birman_krein_trace, casimir_energy, casimir_force,
                     power_trace, trace_df)
from .errors import (ConvergenceError, LayerDetError, SceneError,
                     SceneFileError, SingularOperatorError, UnresolvedGridError)
from .fields import FieldEvaluator, FieldPoint, field_point
from .geometry import (BoundaryGrid, Curve, Scene, discretize,
                       distance_to_boundary, make_circle, make_ellipse,
                       make_kite, make_polar_fourier, make_scene)
from .kernel import SpectralPoint, green_free
from .layer_ops import (Factorization, LayerMatrix, assemble_dq, assemble_q,
                        factorize, solve)
from .oracle import PartialWaveConfig, default_l_max, xi_two_disks
from .xi import (ShiftSample, XiSample, trace_rrel, xi_imag, xi_on_ray,
                 xi_prime, xi_real, xi_rel, xi_rel_many)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
