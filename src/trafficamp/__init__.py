"""Graph-polynomial calculus for traffic distributions, treelike AMP with
exact Onsager corrections, and closed-form state-evolution predictions."""

from .diagrams import (CATALOG, Diagram, DiagramClass, canonical_form,
                       canonicalize, check_open_cactus, classify,
                       cycles_of_cactus, named_diagram, parse_diagram, quotient,
                       w_to_z_coefficients, z_to_w_coefficients)
from .ensembles import EnsembleSpec, generate, puncture
from .freeprob import (CumulantTable, cactus_traffic_value,
                       cumulants_to_moments, diagonal_from_spectral,
                       enumerate_nc, kreweras, moments_to_cumulants,
                       named_table, weingarten_limit)
from .gaussian import (GaussianLaw, Polynomial, isserlis_moment,
                       named_polynomial, poly_expectation)
from .graphpoly import eval_w, eval_w_brute, eval_z
from .amp import AMPConfig, DivergenceError, empirical_state, onsager_b, run
from .state_evolution import (SEDivergenceError, SEKernel, compare_empirical,
                              se_block_goe, se_community, se_orthogonal,
                              se_punctured)

__version__ = "0.1.0"
