"""Exact upper bounds on distillable nonlocality of binary boxes."""

from .boxes import (
    ANTI_PR,
    BinarySystem,
    CHSHExpression,
    CHSH_EXPRESSIONS,
    LOCAL_VERTICES,
    NONLOCAL_VERTICES,
    P_C,
    P_F,
    PR,
    is_isotropic,
    local_vertex,
    mix,
    nl_value,
    nonlocal_vertex,
    rational,
    validate,
    wedge,
)
from .bounds import (
    BoundReport,
    ClassGrid,
    ClassProfile,
    class_bound,
    class_grid,
    general_bound,
    iso_bound,
)
from .decompose import (
    Decomposition,
    DecompositionError,
    local_part,
    minimal_isotropic,
)
from .delta import (
    DeltaTables,
    MemoryBudgetError,
    build_tables,
    load_tables,
)
from .protocols import (
    Protocol,
    WiringPlan,
    brute_force_D,
    enumerate_plans,
    inner_product,
    nl_protocol,
    sandwich_check,
    trivial_protocol,
    wiring_grid,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
