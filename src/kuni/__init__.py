"""Construction and exact certification of k-uniform and AME qudit states
from classical MDS codes."""

__version__ = "0.1.0"

from .codes import (
    LinearCode,
    dual_code,
    enumerate_codewords,
    is_mds,
    mds_exists,
    mds_from_singleton,
    min_distance,
    puncture,
    shorten,
    singleton_array,
    standard_form,
)
from .cyclotomic import Cyclotomic
from .decomposition import (
    CosetDecomposition,
    QMatrix,
    construct_G_Q,
    coset_partition,
    kernel_subcode,
    search_Q,
    verify_decomposition,
)
from .field import (
    FFMatrix,
    FieldElement,
    FieldSpec,
    gf,
    make_field,
    matrix_det_inv,
    matrix_rref,
    primitive_element,
)
from .states import (
    SparseState,
    WeylWord,
    apply_weyl,
    bell,
    bell_pair,
    builtin_state,
    cl_plus_q,
    cl_plus_q_repetition,
    ghz,
    inner_product,
    local_fourier,
    state_from_code,
    tensor,
    weyl_basis,
)
from .verify import (
    ReducedDensity,
    UniformityReport,
    certify_ame_via_codes,
    gram_check,
    is_maximally_mixed,
    reduced_density,
    slocc_witness,
    stabilizer_check,
    support_census,
    uniformity,
)
