"""czlab: a desk-scale laboratory for dyadic weighted-norm experiments."""

__version__ = "0.1.0"

from .dyadics import (
    GridSpec,
    DyadicCube,
    StepFunction,
    GridMismatchError,
    children,
    ancestor,
    average,
    lp_norm,
    rearrangement_value,
)
from .characteristics import (
    CharacteristicReport,
    dual_weight,
    ap_characteristic,
    ainfty_characteristic,
    joint_ap,
    maximal_function,
)
from .shifts import (
    HaarShift,
    ShiftLevel,
    GridEnsemble,
    build_petermichl,
    build_random_shift,
    build_paraproduct,
    hilbert_direct,
    hilbert_average,
)
from .positive import (
    TauCoefficients,
    apply_positive,
    sawyer_testing,
    strong_norm_bound,
)
from .lerner import (
    Decomposition,
    median,
    oscillation,
    local_sharp_maximal,
    lerner_decompose,
)
from .stopping import (
    StoppingFamily,
    stopping_children,
    build_stopping_family,
)
from .normlab import (
    NormEstimate,
    SweepRow,
    NonConvergenceError,
    norm_p2,
    norm_lp_lower,
    weak_norm_estimate,
    sharpness_sweep,
)
