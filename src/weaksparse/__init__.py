"""Dyadic laboratory for sparse operators and weighted norm inequalities."""

from .constants import (
    ConstantReport,
    InequalityReport,
    WeightPair,
    ainfty_constant,
    ap_constant,
    apvec_constant,
    check_constant_inequalities,
    dualize_first_entry,
    pair_weights,
    reverse_holder_check,
    reverse_holder_epsilon,
)
from .dyadic import (
    DyadicCube,
    GridConfig,
    Relation,
    all_cubes,
    cells_of,
    children,
    cube,
    parent,
    relation,
)
from .experiment import (
    ExperimentRow,
    SlopeResult,
    default_test_functions,
    fit_loglog_slope,
    slope_experiment,
)
from .exponents import (
    ExponentReport,
    P_THRESHOLD,
    RegionTable,
    alpha,
    region_map,
    region_svg,
)
from .families import (
    WeightFamilySpec,
    build_family,
    power_weight,
    random_weight,
)
from .measure import (
    ExponentTuple,
    GridFunction,
    Weight,
    atom_norms,
    average,
    constant,
    dual_weight,
    indicator,
    joint_weight,
    kolmogorov_check,
    lp_norm,
    weak_norm,
    weighted_average,
    weighted_measure,
)
from .sparse import (
    SparseFamily,
    family_from_cubes,
    generate_sparse,
    restrict,
    sparse_eval,
    sparse_split_eval,
    tower_family,
    verify_sparse,
)
from .stopping import (
    CarlesonReport,
    StoppingFamily,
    bilinear_form_decompose,
    build_stopping,
    carleson_checks,
    stopping_parent,
)
from .testing_conditions import (
    TestingReport,
    global_strong_quantity,
    global_weak_quantity,
    local_sigma_testing_ratio,
    local_testing_quantity,
    sparse_sum_norm_ratios,
)
from .verify import run_suite

__version__ = "0.1.0"
