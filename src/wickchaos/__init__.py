"""Exact Wiener chaos algebra over finitely many Gaussian coordinates.

Sparse Hermite-coefficient vectors with exact Wick and ordinary products,
Malliavin derivative and divergence, S-transform, Stratonovich/Ito
conversion, Wick renormalization of Gaussian polynomials and quadratic
exponentials, and a deterministic Monte Carlo harness for statistical
cross-checks.  Hermite polynomials follow the probabilists' convention
(H_2(x) = x^2 - 1) throughout.
"""

from .chaos import (ChaosVector, add, coeff_distance, evaluate, evaluate_at,
                    expectation, exponential_vector, from_tensor, gamma_norm,
                    inner_product, l2_norm, ordinary_product, scale,
                    second_quantization, to_tensor, wick_exp, wick_power,
                    wick_product)
from .checks import CheckRow, run_checks
from .errors import (DimensionMismatchError, DivergenceError, DomainError,
                     MismatchError, OrderOverflowError, ParseError,
                     SchemaError, WickChaosError)
from .hermite import (hermite_eval, hermite_shift, hermite_to_power,
                      hu_meyer_coeff, power_to_hermite)
from .malliavin import (HValuedChaos, derivative_dir, directional_derivative,
                        divergence, gradient, higher_derivative, ou_apply,
                        product_via_wick_gradients, sobolev_norm,
                        wick_via_malliavin, wick_with_gaussian)
from .montecarlo import (ZSCORE_THRESHOLD, Estimate, estimate_expectation,
                         estimate_lp_norm, estimate_pair_expectation,
                         mean_estimate, zscore_check)
from .multiindex import EMPTY, MultiIndex
from .renormalization import (PolySeries, WickExpI2, WickExpSquare,
                              chaos_to_poly, negative_definite, poly_add,
                              poly_eval, poly_mul, poly_power, poly_scale,
                              poly_to_chaos, renorm_product_check,
                              series_condition, wick_exp_I2, wick_exp_square,
                              wick_order_icopy_exact, wick_order_icopy_mc,
                              wick_order_poly)
from .sampling import SampleBatch, sample_gaussians
from .serialization import (chaos_from_obj, chaos_to_obj, dumps, loads_chaos,
                            loads_poly, loads_tensor, poly_from_obj,
                            poly_to_obj, tensor_from_obj, tensor_to_obj)
from .stransform import s_transform, s_transform_mc, translate
from .stratonovich import (ito_from_stratonovich, stratonovich_integral,
                           stratonovich_partial_sum, trace, trace_k)
from .tensors import (SymTensor, basis_tensor, contraction_1, independent,
                      sym_product)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
