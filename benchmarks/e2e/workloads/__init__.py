"""The workloads, by name (see ``spec.WORKLOADS`` for why each exists)."""

from .batch import BatchFill, BatchReplay
from .compile_cold import CompileCold
from .execute import ExecBaseline, ExecRaised
from .serve import ServeHot, ServeMixed
from .tune import TuneSearch

WORKLOADS = {
    cls.name: cls
    for cls in (
        CompileCold,
        BatchFill,
        BatchReplay,
        ExecBaseline,
        ExecRaised,
        TuneSearch,
        ServeHot,
        ServeMixed,
    )
}
