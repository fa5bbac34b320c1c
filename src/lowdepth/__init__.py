"""lowdepth: verified depth reduction for algebraic formulas.

A formula toolkit built around one guarantee: every rewriting pass is checked
against exact polynomial expansion (or randomized identity testing when the
expansion is too large), in commutative and non-commutative mode, over exact
rationals or a prime field.
"""

from .errors import (
    BudgetExceeded,
    FormulaSyntaxError,
    InfeasibleShape,
    InputError,
    LowdepthError,
    ModeMismatch,
    NotComputingH,
    NotSemanticallyHomogeneous,
    ParamOutOfRange,
    UniverseTooLarge,
    WellFormednessError,
)
from .fields import MERSENNE61, PrimeField, QQ, Rationals, field_from_name
from .ir import (
    Formula,
    GateMetrics,
    OneLeaf,
    ProdGate,
    SumGate,
    VarLeaf,
    count_parse_trees,
    is_homogeneous,
    metrics,
    validate,
    variables,
)
from .poly import PolyTable, equal_expand, expand, gate_monomial_counts
from .pit import PITConfig, PITResult, check_witness, pit_equal
from .sexpr import parse, parse_file, serialize, write_file
from .transforms import (
    auto_delta,
    bb_branch_param,
    binarize,
    collapse,
    depth_reduce_bb,
    depth_reduce_homogeneous,
    depth_reduce_main,
    depth_reduce_nearlinear,
    homogenize,
    pipeline_inhom,
    product_fanin_2,
)
from .hardpoly import (
    HardParams,
    check_gate_counts,
    check_prefix_property,
    decode_var,
    encode_var,
    gen_hard,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
