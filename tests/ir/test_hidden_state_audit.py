"""Hidden-state audit: printed IR is the whole IR.

Every cache tier that stores module or function *text* (``modules/``,
``passes/``, the tuner's worker payload) is only sound when nothing a
later stage reads lives outside the printed form.  The tile marker used
to be exactly such state (a Python attribute on ``affine.for`` that
``clone()`` and print->parse dropped); this audit keeps the class of bug
closed over the fuzz corpus x every optimizer driver and schedule:

* ``print -> parse -> print`` is byte-identical,
* the kernel compiled from the re-parsed (and from the cloned) module
  is the kernel compiled from the in-memory module, bail stats included,
* no op instance carries a Python attribute its constructor did not set.
"""

import pytest

from repro.execution.engine.codegen import compile_module
from repro.execution.engine.optimizer import OPT_MODES, run_optimizer
from repro.fuzzing import generate_affine_module, generate_kernel
from repro.ir import ModuleOp, print_module
from repro.ir.parser import parse_module
from repro.met import compile_c
from repro.scheduling.autotune import enumerate_space
from repro.scheduling.interpreter import (
    apply_schedule,
    canned_schedule,
    schedule_from_params,
)

#: Fuzz kernels are small: the default tile edge never fires on them.
SMALL_TILE = 3

#: What ``Operation.__init__`` sets, plus memoized (derived, never
#: semantic) caches: the module's version-stamped fingerprint.  The
#: interpreter stores nothing on ops (its plans live for one run).
_CONSTRUCTOR_STATE = {
    "_name",
    "successors",
    "_operands",
    "results",
    "attributes",
    "regions",
    "parent_block",
}
_MODULE_MEMOS = {"version", "_fingerprint_memo"}


def _transforms():
    """(label, in-place transform) over every driver and schedule."""
    for mode in OPT_MODES:
        for tile in (None, SMALL_TILE):
            kwargs = {} if tile is None else {"tile_size": tile}
            yield (
                f"opt:{mode}:tile={tile}",
                lambda m, mode=mode, kw=kwargs: run_optimizer(m, mode, **kw),
            )
            yield (
                f"canned:{mode}:tile={tile}",
                lambda m, mode=mode, kw=kwargs: apply_schedule(
                    canned_schedule(mode, **kw), m
                ),
            )
    points = enumerate_space() + [
        {"fuse": fuse, "tile": tile, "unroll_jam": factor}
        for fuse in (True, False)
        for tile in (2, SMALL_TILE)
        for factor in (0, 2)
    ]
    for index, params in enumerate(points):
        yield (
            f"tuner#{index}",
            lambda m, params=params: apply_schedule(
                schedule_from_params(params), m
            ),
        )
    # Explicit sizes skip the vectorizer's first refusal, so the marker
    # lands on bands that *would* have collapsed: the case where
    # dropping it changes the emitted kernel, not just the bail stats.
    for sizes in ([2], [2, 3], [2, 2, 2]):
        schedule = parse_module(
            "module {\n  transform.sequence {\n"
            "    %0 = transform.match\n"
            f"    %1 = transform.tile %0 {{sizes = {sizes}}}\n"
            "  }\n}\n"
        )
        yield (
            f"sizes={sizes}",
            lambda m, schedule=schedule: apply_schedule(schedule, m),
        )


def _payloads(seed):
    kernel = generate_kernel(seed)
    yield "c", compile_c(kernel.source, distribute=False)
    yield "builder", generate_affine_module(seed).module


def _audit(seed):
    tiled = 0
    for kind, payload in _payloads(seed):
        for label, transform in _transforms():
            where = f"seed {seed} {kind} {label}"
            module = payload.clone()
            transform(module)
            for op in module.walk():
                allowed = _CONSTRUCTOR_STATE | (
                    _MODULE_MEMOS if isinstance(op, ModuleOp) else set()
                )
                assert set(vars(op)) <= allowed, (where, op.name)
            text = print_module(module)
            tiled += "{no_vectorize}" in text
            reparsed = parse_module(text)
            assert print_module(reparsed) == text, where
            assert print_module(module.clone()) == text, where
            reference = compile_module(module)
            for variant in (reparsed, module.clone()):
                compiled = compile_module(variant)
                assert compiled.source == reference.source, where
                assert (
                    compiled.vectorize_stats == reference.vectorize_stats
                ), where
    return tiled


@pytest.mark.fuzz
@pytest.mark.parametrize("seed", [3, 10, 19, 26])
def test_printed_ir_is_the_whole_ir(seed):
    # the audit is only worth its name if the tile marker is exercised
    assert _audit(seed) > 0


@pytest.mark.fuzz
@pytest.mark.slow
def test_printed_ir_is_the_whole_ir_fixed_corpus():
    for seed in range(40):
        assert _audit(seed) > 0
