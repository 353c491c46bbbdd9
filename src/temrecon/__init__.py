"""Time-encoding of time-space signals and iterative reconstruction.

Signals live in a shift-invariant reproducing-kernel subspace of a mixed
(p, q)-norm space: an inner space-axis norm nested in an outer time-axis
norm.  Spatially scattered devices encode the time slices with crossing or
integrate-and-fire machines; two contraction iterations rebuild the signal
from firing times alone, and a lattice frame family with a truncated
Neumann inverse provides the companion series reconstruction.

The package exports the names of the README quick start, the second
machine's encoder and iteration, the frame report, the command-line entry
points and the error classes; everything else is imported from its module.
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
from .mixed_norm import Grid, MixedNormParams
from .generator import Generator, dual_generator
from .kernel_space import VSignal, build_shift_invariant_kernel, window_for_grid
from .tem_encode import DeviceSet, TemConfig, encode_ctem_devices, encode_iftem_devices
from .reconstruct import ctem_iterate, iftem_iterate
from .frames import FrameFamily, frame_report
from .cli import ExperimentConfig, load_config, run_experiment, run_frames, selftest

__version__ = "0.1.0"
