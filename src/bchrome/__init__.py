"""b-colorings with d+1 colors on d-regular girth-5 graphs.

Constructive strategies for centers with restricted 6-cycle structure or
two closed bunches, a certificate verifier, exhaustive desk-scale oracles,
and graph interchange formats.
"""

from .coloring import (
    Certificate,
    PartialColoring,
    VerifyResult,
    available_colors,
    b_vertices,
    greedy_complete,
    is_b_coloring,
    is_proper,
    verify_certificate,
)
from .construct import (
    BunchMatrix,
    HypothesisReport,
    auto_color,
    check_bunch_matrix,
    color_bounded_c6,
    color_no_c6,
    color_two_bunch,
    hypothesis_report,
    lemma_extension,
    order_by_degree_sequences,
    order_two_bunch,
    swap_repair,
)
from .errors import (
    BadInput,
    BchromeError,
    ConstructionFailed,
    GenerationFailed,
    HallFailure,
    MalformedDimacs,
    MalformedGraph6,
    NoStrategyApplies,
    PreconditionViolated,
    SchemaViolation,
)
from .formats import (
    parse_dimacs,
    parse_graph6,
    read_certificate,
    write_certificate,
    write_dimacs,
    write_graph6,
)
from .generators import (
    GenSpec,
    cycle,
    hoffman_singleton,
    petersen,
    random_regular_girth,
    robertson,
)
from .graph import (
    BunchStructure,
    Graph,
    build_graph,
    bunches,
    closed_bunches,
    count_c6_in_n2,
    count_c6_through_vertex,
    girth,
    s2_degree,
    sphere,
)
from .oracle import (
    BChromaticResult,
    BColoringResult,
    SearchLimits,
    b_coloring_exists,
    enumerate_c6_through,
    exact_b_chromatic,
    transversal_backtrack,
)
from .transversal import SetFamily, color_bunch, find_transversal

__version__ = "0.1.0"
