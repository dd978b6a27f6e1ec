"""Experiment harness: the run engine, the scale family and the paper's
claims as rows (:mod:`repro.experiments.claims`)."""

from repro.experiments.cache import (
    ResultCache,
    config_key,
    result_fingerprint,
)
from repro.experiments.claims import (
    CLAIMS,
    Claim,
    ClaimsReport,
    Verdict,
    aggregate,
    measure_claims,
)
from repro.experiments.parallel import (
    ParallelRunner,
    get_default_runner,
    set_default_runner,
)
from repro.experiments.runner import (
    RunConfig,
    RunResult,
    build_protocol,
    repeat_configs,
    repeat_seeds,
    run_once,
    run_repeats,
)
from repro.experiments.scale import (
    ScaleCurve,
    ScaleFamily,
    ScalePoint,
    ScaleVariant,
    default_variants,
    run_scale,
)

__all__ = [
    "RunConfig",
    "RunResult",
    "run_once",
    "run_repeats",
    "repeat_seeds",
    "repeat_configs",
    "build_protocol",
    "ParallelRunner",
    "ResultCache",
    "config_key",
    "result_fingerprint",
    "get_default_runner",
    "set_default_runner",
    "CLAIMS",
    "Claim",
    "ClaimsReport",
    "Verdict",
    "aggregate",
    "measure_claims",
    "run_scale",
    "default_variants",
    "ScaleFamily",
    "ScaleCurve",
    "ScalePoint",
    "ScaleVariant",
]
