"""Schedule-as-data: the transform-dialect interpreter and autotuner.

The :mod:`repro.dialects.transform` dialect expresses *schedules* —
sequences of transformations over payload IR — as ordinary IR modules.
This package applies them (:mod:`.interpreter`) and searches over them
(:mod:`.autotune`).
"""

from .interpreter import (  # noqa: F401
    ScheduleError,
    ScheduleResult,
    apply_schedule,
    canned_fingerprint,
    canned_schedule,
    random_schedule,
    schedule_from_params,
)
