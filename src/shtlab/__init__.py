"""Verification lab for two-weight maximal-operator inequalities on finite
quasimetric measure spaces: weight constants, exact maximal operators,
stopping-time decompositions with explicit structural constants, and an
inequality harness."""

from .errors import InputError, NumericalError, PreconditionError
from .space import (
    Ball,
    QuasiMetricSpace,
    SpaceProfile,
    build_space,
    space_profile,
    check_engulfing,
    check_dilation_bounds,
)
from .orlicz import (
    Power,
    PowerLog,
    NumericConjugate,
    p_conjugate,
    alpha_p,
)
from .maximal import hl_maximal, orlicz_maximal
from .weights import (
    ap_constant,
    two_weight_ap,
    ainfty_fujii_wilson,
    ainfty_exp,
    bump_ap,
    wp_constant,
    sawyer_constant,
    constants_report,
)
from .czdecomp import (
    CZDecomposition,
    cz_decompose,
    verify_cz_properties,
    LevelFamily,
    multi_level_decompose,
    verify_disjointing,
)
from .verify import (
    verify_main_chain,
    OpNormEstimate,
    opnorm_lower_bound,
    verify_reductions,
    probe_moen_and_norm,
    weak_rhi_probe,
    verify_appendix_bump,
)
from .suite import default_manifest, run_suite

__version__ = "0.1.0"
