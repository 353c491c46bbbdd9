"""Time-encoding of time-space signals and iterative reconstruction.

Signals live in a shift-invariant reproducing-kernel subspace of a mixed
(p, q)-norm space: an inner space-axis norm nested in an outer time-axis
norm.  Spatially scattered devices encode the time slices with crossing or
integrate-and-fire machines; two contraction iterations rebuild the signal
from firing times alone, and a lattice frame family with a truncated
Neumann inverse provides the companion series reconstruction.
"""

from .errors import (
    ContractionError,
    EncodingInvariantError,
    GapError,
    GridMismatchError,
    InputError,
    PreconditionError,
    ResolutionError,
    SingularGeneratorError,
    TemreconError,
)
from .mixed_norm import (
    CoefSeq,
    Grid,
    GridFunction,
    MixedNormParams,
    composite_weights,
    conjugate_exponent,
    duality_pairing,
    mixed_function_norm,
    mixed_sequence_norm,
)
from .generator import (
    DualGenerator,
    Generator,
    GeneratorInfo,
    amalgam_norm_1d,
    amalgam_norm_2d,
    bspline_autocorr,
    bspline_eval,
    dual_coeffs_from_autocorr,
    dual_generator,
    generator_info,
    modulus_1d,
    modulus_amalgam_1d,
    modulus_of_continuity,
)
from .kernel_space import (
    Kernel,
    SplineFactor1D,
    VSignal,
    Window,
    analysis_bound_check,
    apply_T,
    build_shift_invariant_kernel,
    generic_w_norm,
    kernel_slice,
    reproducing_bound,
    reproducing_residual,
    window_for_grid,
)
from .tem_encode import (
    DeviceSet,
    TemConfig,
    TemOutput,
    ctem_encode,
    density_report,
    encode_ctem_devices,
    encode_iftem_devices,
    iftem_encode,
    partition_of_unity,
)
from .reconstruct import (
    ReconstructionReport,
    apply_R,
    apply_S,
    ctem_iterate,
    estimate_r1,
    estimate_r2,
    iftem_iterate,
)
from .frames import (
    FrameFamily,
    build_Kdelta,
    dual_pair_reconstruct,
    formula_r0_branches,
    frame_atoms,
    frame_bounds_check,
    frame_report,
    measured_r0,
    neumann_coefficients,
    neumann_plus,
)
from .cli import ExperimentConfig, load_config, run_experiment, selftest, synth_random_vsignal

__version__ = "0.1.0"
