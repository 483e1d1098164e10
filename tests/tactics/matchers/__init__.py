"""The Figure 6 matcher library: structural, operation and
access-pattern combinators (§III-C).

Compiled tactics never call it: each runs the straight-line matcher the
TableGen backend generates (``CompiledTactic.source``).  The library is
kept here, beside :mod:`tests.tactics.combinator_oracle`, as the
independent reading of a pattern that the generated code is diffed
against; an oracle built from the code it checks would check nothing.
"""

from .op_matchers import m_Any, m_Capt, m_Op  # noqa: F401
from .access import (  # noqa: F401
    AccessPatternContext,
    MatchFailure,
    m_ArrayPlaceholder,
    m_Placeholder,
    match_block_accesses,
)
from .structural import For, If, NestedPatternContext, StructuralMatcher  # noqa: F401
from .producers import m_ProducerOp, producer_of  # noqa: F401
