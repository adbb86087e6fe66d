"""Packing and covering of weighted terminal-linking paths in labelled graphs."""

from .chains import (
    CycleChain,
    reachable_mask,
    reachable_weights,
    reroute_to_weight,
    sharpness_witness,
    zero_path_from_chain,
)
from .errors import (
    DEFAULT_LIMITS,
    GammapathError,
    GroupMismatchError,
    InternalInvariantError,
    Limits,
    LimitExceeded,
    NormalizationFailed,
    PreconditionFailed,
)
from .frame import base_zero_path, extract_zero_paths, frame_pack_or_cover
from .gadgets import (
    GridGadget,
    build_integer_gadget,
    build_quotient_gadget,
    build_subgroup_escape_gadget,
    verify_gadget,
)
from .graphs import (
    DIRECTED,
    UNDIRECTED,
    Edge,
    LabelledGraph,
    PathWitness,
    apply_shifts,
    enumerate_terminal_paths,
    is_gamma_bipartite,
    iter_simple_cycles,
    nonzero_terminal_path_from_fans,
    normalize_to_zero,
    three_blocks,
    walk_weight,
)
from .groups import (
    CayleyGroup,
    CyclicProduct,
    GroupElem,
    GroupSpec,
    INFINITE,
    IntegerGroup,
    cyclic_subgroup,
    element_order,
    elements_of_order_at_most_2,
    find_bad_pair,
    find_halving,
    group_from_json,
    has_weight_ep,
    has_zero_path_ep,
    subgroup_contains,
    sumset,
)
from .packing import (
    PackOrCover,
    PathFamilySpec,
    duality_report,
    max_packing,
    min_cover,
    reduce_weight_to_zero,
)

__version__ = "0.1.0"
