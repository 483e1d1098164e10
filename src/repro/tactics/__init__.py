"""Multi-Level Tactics: declarative progressive raising.

The compilation flow (Figure 3 of the paper)::

    TDL text --(TDL frontend)--> TDS (TableGen records)
             --(MLT backend)---> matchers + builders
             --(pattern rewriter)--> raised IR

Public entry points:

    raise_affine_to_affine(module)   # -raise-affine-to-affine  (§V-A)
    raise_affine_to_linalg(module)   # -raise-affine-to-linalg  (§V-B)
    reorder_matrix_chains(module)    # Linalg-level chain opt    (§V-C)
"""

from .tdl.ast import TdlAccess, TdlStatement, TdlTactic, TdlSyntaxError  # noqa: F401
from .tdl.parser import parse_tdl  # noqa: F401
from .tdl.frontend import tdl_to_tds  # noqa: F401
from .tds import (  # noqa: F401
    BuilderSpec,
    TacticRecord,
    parse_tds,
)
from .tablegen import TableGenBackend, TableGenError  # noqa: F401
from .compiled import CompiledTactic, MatchResult, compile_tactic  # noqa: F401
from .raising import (  # noqa: F401
    RaiseAffineToAffinePass,
    RaiseAffineToLinalgPass,
    TacticRewritePattern,
    default_linalg_tactics,
    raise_affine_to_affine,
    raise_affine_to_linalg,
)
from .contraction import (  # noqa: F401
    contraction_tactic_tdl,
    ttgt_plan,
    ttgt_plans,
)
from .chain import (  # noqa: F401
    MatrixChainReorderPass,
    optimal_parenthesization,
    reorder_matrix_chains,
)
