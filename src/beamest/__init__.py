"""Two-stage beam-domain channel parameter estimation for mmWave sub-arrays.

Stage one correlates DFT-beam probing observations against shifted
constant-amplitude pilots and reads model order, integer delays and
LUT-interpolated spatial frequencies off the power matrix; stage two refines
every path by space-alternating expectation maximization.  Analytic
Cramer-Rao bounds and a seeded Monte-Carlo harness round out the package.
"""

__version__ = "0.1.0"

from ._kernels import active_backend
from .arrays import (ArrayConfig, ScatteringMatrix2x2, butler_matrix, dft_beam,
                     dft_codebook, hybrid_coupler, mu_to_theta_deg, steering_vector)
from .channel import (ChannelRealization, PathParams, ReceiveMatrix, ScenarioConfig,
                      draw_realization, synthesize)
from .coarse import (CoarseEstimate, CoarsePath, Detection, Feedback, Lut, build_lut,
                     coarse_estimate, correlate, detect_paths, detection_threshold)
from .crlb import CrlbReport, crlb_bounds, fisher_matrix, parameter_index
from .errors import ConfigurationError, NumericalDegeneracyError
from .harness import (CoarseParams, RunConfig, load_config, match_paths, run_sweep,
                      run_trial, write_outputs)
from .pilots import CazacConfig, cazac_base, pilot_matrix, pilot_matrix_derivative
from .sage import (PathEstimate, RefinedEstimate, SageConfig, expectation_step,
                   maximize_mu, maximize_tau, run_sage, run_sage_from, update_alpha)

__all__ = [name for name in dir() if not name.startswith("_")]
