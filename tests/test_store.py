"""``repro.store`` — one cache layout, one key format, one ladder.

* a forgotten knob cannot share a key (every ``CompileConfig`` field
  moves both keys);
* only the store module knows the layout and the key format
  (structural guard over ``src/``);
* the fault-injection matrix: a damaged artifact in any of the four
  namespaces, met by its real consumer, is a miss that repairs itself.
"""

import dataclasses
import json
import os
import re
import subprocess
import sys

import pytest

import repro
from repro.execution.engine.disk_cache import ARTIFACT_SUFFIX
from repro.store import (
    CODE_DIGEST,
    NAMESPACES,
    ArtifactStore,
    CompileConfig,
    LruMemo,
    code_digest,
    compile_unit,
    pass_key,
    schedule_key,
)

GEMM = """
void gemm(float A[4][4], float B[4][4], float C[4][4]) {
  for (int i = 0; i < 4; i++)
    for (int j = 0; j < 4; j++)
      for (int k = 0; k < 4; k++)
        C[i][j] += A[i][k] * B[k][j];
}
"""


# ----------------------------------------------------------------------
# Keys
# ----------------------------------------------------------------------


def _other(value):
    """A value of the same type that differs from ``value``."""
    if isinstance(value, str):
        return value + "x"
    if isinstance(value, tuple):
        return value + ("x",)
    return value + 1


@pytest.mark.parametrize(
    "field", [f.name for f in dataclasses.fields(CompileConfig)]
)
def test_every_config_field_moves_both_keys(field):
    """Iterates ``dataclasses.fields``: a knob added to the config later
    is covered without touching this test."""
    base = CompileConfig()
    changed = dataclasses.replace(
        base, **{field: _other(getattr(base, field))}
    )
    assert changed != base
    assert changed.module_key("source") != base.module_key("source")
    assert changed.kernel_key("fp") != base.kernel_key("fp")


def test_keys_separate_namespaces_sources_and_versions(monkeypatch):
    config = CompileConfig(label="l")
    assert config.module_key("a") != config.module_key("b")
    assert config.module_key("a") != config.kernel_key("a")

    def keys():
        return (
            config.module_key("a"),
            config.kernel_key("a"),
            pass_key("worklist", "fp", "canonicalize", ""),
            schedule_key("fp"),
        )

    before = keys()
    monkeypatch.setattr("repro.store.CODE_DIGEST", "0" * 64)
    after = keys()
    # Every namespace misses once the code changes.
    assert all(old != new for old, new in zip(before, after))


def test_code_digest_names_every_source_file(tmp_path):
    package = tmp_path / "pkg"
    (package / "sub").mkdir(parents=True)
    (package / "a.py").write_text("x = 1\n")
    (package / "sub" / "b.py").write_text("y = 2\n")
    (package / "notes.txt").write_text("not code")
    first = code_digest(str(package))
    assert first == code_digest(str(package))
    (package / "notes.txt").write_text("still not code")
    assert code_digest(str(package)) == first
    (package / "sub" / "b.py").write_text("y = 2  # a comment\n")
    edited = code_digest(str(package))
    assert edited != first
    # A file's path is part of its identity, not only its bytes.
    (package / "sub" / "b.py").rename(package / "b2.py")
    assert code_digest(str(package)) not in (first, edited)
    assert CODE_DIGEST == code_digest(os.path.dirname(repro.__file__))


_SRC = os.path.dirname(repro.__file__)


def _src_files():
    """(path relative to ``src/repro``, text) of every source file."""
    for folder, _, files in os.walk(_SRC):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                with open(path) as handle:
                    yield os.path.relpath(path, _SRC), handle.read()


def test_only_the_store_module_knows_layout_and_key_format():
    """Outside ``repro/store.py`` nothing under ``src/`` joins a
    namespace name onto a path, reads or writes a text artifact, or
    spells a hand-built key component (each was done by hand in several
    files, and the copies drifted, before the store owned them)."""
    namespaces = "|".join(NAMESPACES)
    forbidden = {
        "joins a namespace onto a path": re.compile(
            rf"""join\([^)]*["'](?:{namespaces})["']"""
        ),
        "reads or writes a text artifact": re.compile(
            r"\.(?:load_text|store_text)\("
        ),
        "spells a key component": re.compile(
            r"#(?:cg|opt|sched|vectorize|tile)="
        ),
    }
    offenders = [
        f"{rel}: {what}"
        for rel, text in _src_files()
        if rel != "store.py"
        for what, pattern in forbidden.items()
        if pattern.search(text)
    ]
    assert offenders == []


def test_one_counter_type_and_one_stats_flag(capsys):
    """Outside ``repro/telemetry.py`` nothing under ``src/`` defines its
    own ``bump`` or subtracts a ``before`` snapshot by hand (two counter
    classes and eight delta/sum loops, each a copy, preceded
    ``Counters``/``delta``/``add``), and ``mlt-opt`` has one stats flag
    and one cache root."""
    forbidden = re.compile(r"def bump\(|-\s*before\[\w+\]")
    offenders = [
        rel
        for rel, text in _src_files()
        if rel != "telemetry.py" and forbidden.search(text)
    ]
    assert offenders == []

    from repro.tool import main

    with pytest.raises(SystemExit):
        main(["--help"])
    help_text = capsys.readouterr().out
    options = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", help_text))
    assert [o for o in options if o.endswith("-stats")] == ["--stats"]
    assert not options & {"--pass-cache", "--no-pass-cache", "--compile"}
    assert options == {
        "--help",
        "--jobs",
        "--out-dir",
        "--cache-dir",
        "--stats",
        "--source",
        "--no-verify",
        "--timing",
        "--driver",
        "--estimate",
        "--execute",
        "--engine",
        "--exec-seed",
        "--opt-mode",
        "--tile-sizes",
        "--output",
    }


def test_raising_tiers_are_selected_by_the_pass_list_only():
    """No second fallback raiser, tier-set knob or raise-stats class
    grows back under ``src/``, and the TDL tier does not import the
    synthesis tier (``repro.raising`` imports ``repro.tactics``, never
    the reverse)."""
    forbidden = re.compile(
        "raise_mode|RAISE_MODES|raise_generics|RaisingStats|"
        "raise-affine-to-generic"
    )
    assert [rel for rel, text in _src_files() if forbidden.search(text)] == []
    probe = "import sys, repro.tactics; sys.exit('repro.raising' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(_SRC))
    assert subprocess.run([sys.executable, "-c", probe], env=env).returncode == 0


def test_lru_memo_evicts_least_recently_used():
    memo = LruMemo(2)
    assert memo.put("a", 1) == 0 and memo.put("b", 2) == 0
    assert memo.get("a") == 1  # refreshes "a": "b" is now the oldest
    assert memo.put("c", 3) == 1
    assert memo.get("b") is None and len(memo) == 2
    with pytest.raises(ValueError):
        LruMemo(0)


# ----------------------------------------------------------------------
# The ladder
# ----------------------------------------------------------------------


def test_ladder_reports_which_rung_answered(tmp_path):
    from repro.met import compile_c

    config = CompileConfig(frontend="c", label="ladder")
    builds = []

    def build():
        builds.append(1)
        return compile_c(GEMM)

    def climb(**kwargs):
        return compile_unit(
            ArtifactStore(str(tmp_path)), GEMM, config, build, **kwargs
        )

    cold = climb()
    assert (cold.module_hit, cold.kernel_hit) == (False, False)
    assert cold.module is not None
    warm = climb()
    assert (warm.module_hit, warm.kernel_hit) == (True, True)
    assert warm.module is None  # nothing needed IR objects
    assert warm.text == cold.text
    assert warm.compiled.source == cold.compiled.source
    assert climb(want_module=True).module is not None
    assert climb(kernel=False).compiled is None
    assert builds == [1]
    # Memory tiers only: every fresh store starts cold.
    assert not compile_unit(
        ArtifactStore(None), GEMM, config, build
    ).module_hit


def test_ladder_propagates_a_source_that_does_not_parse(tmp_path):
    from repro.ir.parser import ParseError, parse_module

    with pytest.raises(ParseError):
        compile_unit(
            ArtifactStore(str(tmp_path)),
            "not ir",
            CompileConfig(),
            lambda: parse_module("not ir"),
        )


# ----------------------------------------------------------------------
# Fault-injection matrix: namespace x damage, through the real consumer
# ----------------------------------------------------------------------
#
# A consumer runs one compile against the cache root and returns
# ``(what it produced, whether the namespace under test answered
# without any rebuilding)``.


def _engine(root):
    from repro.execution import ExecutionEngine
    from repro.met import compile_c

    cache = ArtifactStore(root).kernels
    engine = ExecutionEngine(
        compile_c(GEMM), pipeline="fault", cache=cache, opt_mode="full"
    )
    return engine.source, cache.stats.codegen_count == 0


def _batch(root):
    from repro.runtime.batch import run_batch

    source = os.path.join(root, "gemm.c")
    with open(source, "w") as handle:
        handle.write(GEMM)
    (result,) = run_batch(
        [source],
        ["raise-affine-to-linalg"],
        os.path.join(root, "out"),
        cache_dir=root,
        compile_kernels=True,
    )
    assert result.ok, result.detail
    with open(result.output_path) as handle:
        return handle.read(), result.detail == "module-cache"


def _serve(root):
    from repro.serving.units import (
        configure_serving,
        normalize_request,
        reset_serving_state,
        serve_unit,
        serving_cache_snapshots,
    )

    reset_serving_state()  # a restarted server: only the disk tiers survive
    configure_serving(root)
    try:
        request = {"op": "execute", "kernel": "gemm", "pipeline": "mlt-blas"}
        response = serve_unit(normalize_request(request))
        modules = serving_cache_snapshots()["default"]["module_cache"]
        return (
            (response["key"], response["checksums"]),
            response["cached"] == "cache" and modules["bytes_written"] == 0,
        )
    finally:
        reset_serving_state()


def _pass_manager(root):
    from repro.ir import print_module
    from repro.met import compile_c
    from repro.tool import build_pipeline

    cache = ArtifactStore(root).passes
    module = compile_c(GEMM)
    pm = build_pipeline(
        ["raise-affine-to-linalg", "convert-linalg-to-affine-loops",
         "affine-loop-tile", "canonicalize"]
    )
    pm.pass_cache = cache
    pm.run(module)
    snap = cache.stats.snapshot()
    return print_module(module), snap["executions"] == snap["misses"] == 0


def _autotune(root):
    from repro.scheduling.autotune import autotune_kernel

    row = autotune_kernel(
        "atax", budget=2, jobs=1, repeats=1, cache_dir=root
    )
    return (row["best_params"], row["schedule"]), row["cached"]


#: namespace -> (consumer, directory under the root, the records are
#: JSON inside the text payload, the payload field, a required field).
CONSUMERS = {
    "kernels": (_engine, "kernels", False, "source", "source"),
    "modules-batch": (_batch, "modules", False, "text", "text"),
    "modules-serve": (
        _serve, "tenants/default/modules", False, "text", "text",
    ),
    "passes": (_pass_manager, "passes", True, "text", "fp"),
    "schedules": (_autotune, "schedules", True, "schedule", "params"),
}


def _rewrite_json(path, record_inside, edit):
    with open(path) as handle:
        outer = json.load(handle)
    if record_inside:
        inner = json.loads(outer["text"])
        edit(inner)
        outer["text"] = json.dumps(inner)
    else:
        edit(outer)
    with open(path, "w") as handle:
        json.dump(outer, handle)


def _truncate_file(path, *_):
    with open(path, "rb") as handle:
        raw = handle.read()
    with open(path, "wb") as handle:
        handle.write(raw[: len(raw) // 2])


def _halve_payload(path, record_inside, payload, _required):
    # Under ``kernels`` the bytecode stays intact: only the digest keeps
    # it from being served for a source it no longer matches.
    def edit(record):
        if payload in record:  # ``clean`` pass entries carry no text
            record[payload] = record[payload][: len(record[payload]) // 2]

    _rewrite_json(path, record_inside, edit)


def _plausible_edit(path, record_inside, payload, required):
    """Damage that still parses and still execs, so only the envelope
    digest can tell: a comment line appended to kernel source, a digit
    bumped in printed IR or inside a pass/schedule record field."""

    def bump(text):
        # Not a digit of a name (``%arg0``, ``f32``): the text must parse.
        bumped, count = re.subn(
            r"(?<![\w%])\d",
            lambda digit: str((int(digit.group()) + 1) % 10),
            text,
            count=1,
        )
        assert count == 1
        return bumped

    def edit(record):
        if payload == "source":
            record["source"] += "# x\n"
        elif record_inside:
            record[required] = json.loads(bump(json.dumps(record[required])))
        else:
            record[payload] = bump(record[payload])

    _rewrite_json(path, record_inside, edit)


def _wrong_key(path, *_):
    _rewrite_json(path, False, lambda outer: outer.update(key="0" * 64))


def _drop_field(path, record_inside, _payload, required):
    _rewrite_json(path, record_inside, lambda record: record.pop(required))


def _unlink(path, *_):
    os.unlink(path)


@pytest.mark.parametrize(
    "damage",
    [
        _truncate_file,
        _halve_payload,
        _plausible_edit,
        _wrong_key,
        _drop_field,
        _unlink,
    ],
    ids=lambda f: f.__name__[1:],
)
@pytest.mark.parametrize("namespace", sorted(CONSUMERS))
def test_fault_injection_damaged_artifact_is_a_repaired_miss(
    namespace, damage, tmp_path
):
    consume, subdir, record_inside, payload, required = CONSUMERS[namespace]
    root = str(tmp_path)
    cold, answered = consume(root)
    assert not answered
    assert consume(root) == (cold, True)  # the fill is replayable

    directory = os.path.join(root, subdir)
    artifacts = [
        os.path.join(directory, name)
        for name in os.listdir(directory)
        if name.endswith(ARTIFACT_SUFFIX)
    ]
    assert artifacts
    for path in artifacts:
        damage(path, record_inside, payload, required)

    damaged, answered = consume(root)  # no exception escapes
    assert damaged == cold
    assert not answered
    assert consume(root) == (cold, True)  # the artifact was repaired
