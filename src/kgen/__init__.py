"""kgen: constant-time generation of k-independent sequences over finite fields."""

from .errors import ConfigError, GuardExceeded, PeriodExhausted
from .field import FieldError, Gf2w, Gfp, find_primitive_element, parse_field_spec
from .generator import (
    FftBatchGenerator,
    GeneratorDescriptor,
    GeneratorSpec,
    HornerGenerator,
    build,
    build_cascade_generator,
    build_expander_generator,
)

__all__ = [
    "ConfigError",
    "FieldError",
    "FftBatchGenerator",
    "GeneratorDescriptor",
    "GeneratorSpec",
    "Gf2w",
    "Gfp",
    "GuardExceeded",
    "HornerGenerator",
    "PeriodExhausted",
    "build",
    "build_cascade_generator",
    "build_expander_generator",
    "find_primitive_element",
    "parse_field_spec",
]
