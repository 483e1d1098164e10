"""The named pipelines are pass lists, defined once.

``NAMED_PIPELINES`` is the only place a Figure-9 configuration is
spelled: ``build_module``, serve corpus units, ``mlt-tune``, the Fig. 9
pricing and the fuzz oracle all run its lists.  These tests pin what the
served lists print, guard that no second definition creeps back, and
check that the one lowering pass the table introduced keys its tile in
the pass cache.
"""

import hashlib
import pathlib
import re

import pytest

from benchmarks.e2e.corpus import mid_source
from repro.evaluation import PAPER_BENCHMARKS, get_kernel
from repro.evaluation.pipelines import (
    NAMED_PIPELINES,
    build_module,
    named_pipeline,
)
from repro.ir import PassManager, PassResultCache, print_module
from repro.met import compile_c
from repro.tool import _pass_registry
from repro.transforms import LinalgContractionsToTiledLoopsPass

SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"
KERNELS = sorted(PAPER_BENCHMARKS) + ["doitgen"]

#: sha256 over the printed ``build_module`` IR of every kernel x
#: {small, mid} x tile {32, 8}, in that order; taken from the builders
#: the table replaced, so the lists print byte-identical IR.  The
#: raising lists' digests also move with the TTGT tactics' plans
#: (``tactics/contraction.py``); ``baseline`` never raises.
GOLDEN = {
    "baseline": "dcfb364ab1dc6a1355eb471f314deeb2ee55a8fc3f32c282f8aeef6b0376bdbd",
    "mlt-linalg": "baacd31edde4481701ce905372fa90d37d8079251bab36b0ae37187c6a53e70b",
    "mlt-blas": "1336710b735a58341b2b07e616879264a400dd5ab28a586a4b4da6e96f41e8da",
}


@pytest.mark.parametrize("pipeline", sorted(GOLDEN))
def test_served_pipeline_prints_golden_ir(pipeline):
    digest = hashlib.sha256()
    for name in KERNELS:
        for source in (get_kernel(name).small(), mid_source(name)):
            for tile in (32, 8):
                module = build_module(source, pipeline, tile)
                digest.update(print_module(module).encode())
    assert digest.hexdigest() == GOLDEN[pipeline]


def test_every_list_is_registered_passes_after_distribution():
    registry = _pass_registry()
    assert set(NAMED_PIPELINES) == {
        "baseline",
        "mlt-linalg",
        "mlt-blas",
        "mlt-synth",
        "mlt-affine",
    }
    for passes in NAMED_PIPELINES.values():
        assert passes[0] == "affine-loop-distribution"
        assert all(name in registry for name in passes)


def test_unknown_pipeline_lists_the_table():
    with pytest.raises(ValueError, match=re.escape(str(sorted(NAMED_PIPELINES)))):
        named_pipeline("mlt-nope")


def _sources(pattern):
    return [
        (path.relative_to(SRC), line)
        for path in sorted(SRC.rglob("*.py"))
        for line in path.read_text().splitlines()
        if re.search(pattern, line)
    ]


def test_no_second_definition_of_a_named_pipeline():
    assert _sources(r"MODULE_BUILDERS|_default_linalg_lowering|build_mlt_") == []


def test_drivers_raise_only_through_the_table():
    # The raising pass is reached through a named list, never called
    # by hand, in every layer that serves, tunes, prices or fuzzes a
    # named pipeline.
    hand_raised = [
        (path, line)
        for path, line in _sources(r"raise_affine_to_linalg\(")
        if path.parts[0] in ("evaluation", "serving", "scheduling")
        or str(path) == "fuzzing/oracle.py"
    ]
    assert hand_raised == []


class TestContractionLoweringPass:
    @staticmethod
    def _raised(source):
        module = compile_c(source, distribute=False)
        pm = named_pipeline("mlt-linalg")
        del pm.passes[-1]  # everything before the contraction lowering
        pm.run(module)
        return module

    @staticmethod
    def _lower(module, tile, cache=None):
        PassManager(verify_each=False, pass_cache=cache).add(
            LinalgContractionsToTiledLoopsPass(tile)
        ).run(module)
        return print_module(module)

    def test_cache_key_folds_the_tile(self):
        raised = self._raised(get_kernel("gemm").small())
        cache = PassResultCache()
        for tile in (8, 32):
            expected = self._lower(raised.clone(), tile)
            assert self._lower(raised.clone(), tile, cache) == expected
        assert expected != self._lower(raised.clone(), 8)

    def test_lowers_only_contractions_and_tiles_deep_nests(self):
        module = self._raised(get_kernel("2mm").small())
        text = self._lower(module, 4)
        assert "linalg.matmul" not in text
        assert text.count("step 4") == 6  # two depth-3 nests, tiled
        assert text.count("linalg.fill") == 2  # data movement stays
