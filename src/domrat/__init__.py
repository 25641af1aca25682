"""Exact domination ratios of integer distance digraphs.

Computes the minimum density of dominating sets of the digraph on Z with
edges g -> g+s for s in a finite generator set, produces periodic witnesses
with exact rational densities, decides existence of sets that dominate
everything exactly once, and solves domination numbers of small circulant
digraphs as an independent cross-check.
"""

from .blockdsl import BlockExpr, BlockParseError, flatten, parse, render
from .circulant import (
    CirculantInstance,
    domination_number,
    is_dominating,
    oracle_scan,
    ratio_oracle,
    residues,
)
from .core import (
    BlockStructure,
    GeneratorSet,
    PeriodicSet,
    blocks_to_periodic,
    coverage_counts,
    periodic_to_blocks,
    verify_dominating,
)
from .errors import CapExceededError, DomratError, InputError, ZeroResidueError
from .formulas import (
    circulant_consecutive,
    circulant_one_s,
    circulant_pm13,
    cong_family,
    eds_predicted,
    ratio_one_s,
    ratio_pair_dividing,
)
from .stategraph import (
    RatioCertificate,
    StateGraph,
    build_state_graph,
    domination_ratio,
    eds_exists,
    min_mean_cycle,
    state_elements,
    state_of,
)

__version__ = "0.1.0"

__all__ = [
    "BlockExpr",
    "BlockParseError",
    "BlockStructure",
    "CapExceededError",
    "CirculantInstance",
    "DomratError",
    "GeneratorSet",
    "InputError",
    "PeriodicSet",
    "RatioCertificate",
    "StateGraph",
    "ZeroResidueError",
    "blocks_to_periodic",
    "build_state_graph",
    "circulant_consecutive",
    "circulant_one_s",
    "circulant_pm13",
    "cong_family",
    "coverage_counts",
    "domination_number",
    "domination_ratio",
    "eds_exists",
    "eds_predicted",
    "flatten",
    "is_dominating",
    "min_mean_cycle",
    "oracle_scan",
    "parse",
    "periodic_to_blocks",
    "ratio_one_s",
    "ratio_oracle",
    "ratio_pair_dividing",
    "render",
    "residues",
    "state_elements",
    "state_of",
    "verify_dominating",
]
