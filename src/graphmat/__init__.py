"""graphmat: semiring-generic sparse matrices and graph algorithms."""

from .algebra import (
    BinaryOp,
    Domain,
    Semiring,
    make_semiring,
    scalar_add,
    scalar_mul,
    semiring_by_name,
    set_from_elements,
    set_to_elements,
    verify_semiring_laws,
)
from .errors import (
    DimensionError,
    DomainError,
    FormatError,
    GraphMatError,
    IndexBoundsError,
)
from .graph import (
    BfsResult,
    GraphHandle,
    adjacency_from_incidence,
    bfs_levels,
    graph_intersection,
    graph_union,
    laplacian_from_incidence,
    sssp_minplus,
)
from .kernels import (
    assign,
    ewise_add,
    ewise_mult,
    extract,
    mxm,
    mxv,
    selection_matrix,
    vxm,
)
from .matrix import (
    Dimensions,
    SparseMatrix,
    TripleList,
    build,
    empty_matrix,
    extract_tuples,
    transpose,
)

__version__ = "0.1.0"
