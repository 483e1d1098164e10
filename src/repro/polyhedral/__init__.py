"""The polyhedral source-to-source baseline (Pluto stand-in)."""

from .dependences import band_is_fully_permutable  # noqa: F401
from .pluto import (  # noqa: F401
    FUSION_HEURISTICS,
    PlutoOptions,
    pluto_best,
    pluto_optimize,
)
