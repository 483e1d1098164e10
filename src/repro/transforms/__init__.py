"""IR transformations: canonicalization, lowering, tiling, fusion."""

from .canonicalize import CanonicalizePass, canonicalize  # noqa: F401
from .distribution import LoopDistributionPass, distribute_loops  # noqa: F401
from .lowering import (  # noqa: F401
    AffineToSCFPass,
    ExpandAffineMatmulPass,
    LinalgContractionsToTiledLoopsPass,
    LinalgToAffinePass,
    LinalgToBlasPass,
    LowerBlasToLLVMPass,
    SCFToLLVMPass,
    expand_affine_expr,
    lower_affine_to_scf,
    lower_linalg_to_affine,
    lower_scf_to_llvm,
    lower_to_llvm,
    lowering_pipeline,
)
from .ttgt import LinalgContractionTTGTPass  # noqa: F401
from .tiling import TileLoopNestPass, TilingError, tile_perfect_nest  # noqa: F401
from .fusion import (  # noqa: F401
    LoopFusionPass,
    can_fuse,
    fuse_sibling_loops,
    greedy_fuse,
)
from .copy_elimination import (  # noqa: F401
    CopyEliminationPass,
    CopyElimResult,
    copy_eliminate,
)
from .delinearization import (  # noqa: F401
    DelinearizationPass,
    delinearize_accesses,
)
from .promotion import SCFToAffinePass, promote_scf_to_affine  # noqa: F401
from .unroll import unroll_jam_loop, unroll_jam_loops  # noqa: F401
