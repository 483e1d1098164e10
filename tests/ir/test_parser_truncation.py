"""Truncated input: the parser answers ``ParseError``, and answers soon.

Text reaches the parser from places that can hand it half a module — a
``mlt-serve`` request with ``source_kind: "ir"``, a cut-off ``.mlir``
file, a damaged cache artifact — so every prefix of what the printer
emits must either parse or raise :class:`ParseError`: never another
exception, and never more ``Parser.next`` calls than there are tokens
(a step budget, not a clock: at the parent ``func @f(%arg0: memref<4``
spun in ``parse_shape_and_element`` forever).
"""

import re

import pytest

from repro.evaluation import get_kernel
from repro.evaluation.kernels import PAPER_BENCHMARKS
from repro.ir import parser, print_module
from repro.met import compile_c
from repro.transforms import lower_to_llvm


class StepBudgetExceeded(Exception):
    pass


@pytest.fixture
def step_budget(monkeypatch):
    real = parser.Parser.next

    def counted(self):
        self.steps = getattr(self, "steps", 0) + 1
        # Each token is consumed at most once, plus the EOF token.
        if self.steps > len(self.tokens) + 1:
            raise StepBudgetExceeded(f"{self.steps} steps")
        return real(self)

    monkeypatch.setattr(parser.Parser, "next", counted)


def _printed_forms(name):
    module = compile_c(get_kernel(name).small())
    met = print_module(module)
    lower_to_llvm(module)
    return met, print_module(module)


def _parses_or_raises_parse_error(text):
    try:
        parser.parse_module(text)
    except parser.ParseError:
        pass


#: Line shapes (digits folded) some test of this module already cut at
#: every character.
_SWEPT_SHAPES = set()


def _cuts_in_new_line_shapes(text):
    """Every cut position inside a line whose shape has not been swept
    yet: what the parser does at end of input depends on the production
    it is in, not on which SSA number or constant the line carries."""
    start = 0
    for line in text.splitlines(keepends=True):
        shape = re.sub(r"\d+", "N", line.strip())
        if shape not in _SWEPT_SHAPES:
            _SWEPT_SHAPES.add(shape)
            yield from range(start, start + len(line))
        start += len(line)


@pytest.mark.parametrize("name", PAPER_BENCHMARKS)
def test_truncated_corpus_modules_parse_or_raise_parse_error(
    name, step_budget
):
    for text in _printed_forms(name):
        _parses_or_raises_parse_error(text)  # the whole module: parses
        for cut in _cuts_in_new_line_shapes(text):
            _parses_or_raises_parse_error(text[:cut])


@pytest.mark.slow
@pytest.mark.parametrize("name", PAPER_BENCHMARKS)
def test_every_prefix_of_corpus_modules_parses_or_raises_parse_error(
    name, step_budget
):
    """The exhaustive form (89 000 prefixes, ~2.5 minutes)."""
    for text in _printed_forms(name):
        for cut in range(len(text) + 1):
            _parses_or_raises_parse_error(text[:cut])


@pytest.mark.parametrize(
    "text",
    [
        "func @f(%arg0: memref<4",
        "func @f(%arg0: memref<4x",
        "func @f() {\n  %0 = affine.apply affine_map<(d0) -> (d0",
        'func @f() {\n  "x.y"() {m = affine_map<(d0',
    ],
)
def test_end_of_input_inside_a_type_or_map_is_a_parse_error(
    text, step_budget
):
    with pytest.raises(parser.ParseError, match=r"\(line \d+\)"):
        parser.parse_module(text)
