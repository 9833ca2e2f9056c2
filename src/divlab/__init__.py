"""divlab: a desk-scale numerical laboratory for divergence-form operator spectra."""

from .lattice import (DIRICHLET, NEUMANN, EquidistributedSeq, FaceField, Grid,
                      ScalarField, SubsetMask, as_scalar_field, ball, ball_mask,
                      cutoff, discrete_gradient, equidistributed_sequence,
                      make_grid, smooth_switch, subset_norm2)
from .fields import (AlloyModel, CouplingDistribution, MatrixField,
                     alloy_model, ball_plateau_field, check_dir_condition, check_ellipticity,
                     checkerboard_field, constant_field, identity_field, mollify,
                     sample_alloy, sampled_field, single_site_sum, tent_minorant)
from .operators import (AlloyOperators, DiscreteOperator, alloy_operators, assemble,
                        perturbation_operator, rescale)
from .spectral import (EigensolveError, LiftingCurve, Spectrum, count_eigenvalues,
                       eigenpairs, eigensolve, hf_derivative, lifting_curve,
                       projector_sample, window_eigenvalues)
from .bounds import (ConstantsConfig, c_evl_family, c_gradient, c_sfucp_family,
                     c_wegner, delta0, kappa_family)

__version__ = "0.1.0"
