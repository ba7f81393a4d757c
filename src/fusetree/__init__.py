"""fusetree: constraint-based scheduling and execution of sparse contraction trees."""

from .bench import BenchInstance, bench_generate, synthetic_tensor
from .check import CompareReport, compare, oracle_nary, oracle_unfused
from .constraints import (
    ConstraintModel,
    ScheduleSolution,
    brute_force_sat,
    build_model,
    report_text,
    search_min_order,
    solve,
    verify_solution,
)
from .errors import FusetreeError
from .executor import Binding, ExecStats, bind, execute
from .lowering import (
    Assign,
    Forall,
    SchedulePair,
    Where,
    generate,
    ir_to_json,
    lower,
    print_ir,
    remove,
    schedule_from_solution,
)
from .network import (
    Contraction,
    ContractionTree,
    TensorRef,
    build_tree,
    classify_indices,
    format_network,
    network_to_json,
    parse_network,
    topological_orders,
)
from .tensor import (
    CsfTensor,
    SparseTensor,
    coo_from_entries,
    csf_build,
    read_tns,
    write_tns,
)

__version__ = "0.1.0"

__all__ = [
    "BenchInstance",
    "Binding",
    "CompareReport",
    "ConstraintModel",
    "Contraction",
    "ContractionTree",
    "CsfTensor",
    "ExecStats",
    "Forall",
    "Assign",
    "FusetreeError",
    "ScheduleSolution",
    "SchedulePair",
    "SparseTensor",
    "TensorRef",
    "Where",
    "bench_generate",
    "bind",
    "brute_force_sat",
    "build_model",
    "build_tree",
    "classify_indices",
    "compare",
    "coo_from_entries",
    "csf_build",
    "execute",
    "format_network",
    "generate",
    "ir_to_json",
    "lower",
    "network_to_json",
    "oracle_nary",
    "oracle_unfused",
    "parse_network",
    "print_ir",
    "read_tns",
    "remove",
    "report_text",
    "schedule_from_solution",
    "search_min_order",
    "solve",
    "synthetic_tensor",
    "topological_orders",
    "verify_solution",
    "write_tns",
]
