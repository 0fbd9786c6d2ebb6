"""Classical simulation of operator scrambling in super-Clifford circuits."""

__version__ = "0.1.0"

import importlib

from .model import (
    C3,
    OperatorProgram,
    ProgramError,
    Swap,
    T,
    localize_c3,
    parse_program,
    format_program,
    reverse_from_state_space,
)
from .tableau import Region, SuperStabilizerTableau, TableauError
from .gf2 import gf2_rank

# The numpy-backed names, imported from their submodule on first access
# (PEP 562), so that the pure-Python core above loads without numpy.
_LAZY = {
    "OperatorWavefunction": "oracle",
    "OracleError": "oracle",
    "verify_gate_tables": "oracle",
    "EntropySeries": "experiments",
    "ExperimentConfig": "experiments",
    "ExperimentError": "experiments",
    "OracleMismatch": "experiments",
    "build_ghz_program": "experiments",
    "circuit_stream": "experiments",
    "estimate_saturation_time": "experiments",
    "fit_growth_rate": "experiments",
    "page_value": "experiments",
    "run_random_ensemble": "experiments",
}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value


__all__ = sorted([
    "C3", "OperatorProgram", "ProgramError", "Swap", "T",
    "localize_c3", "parse_program", "format_program", "reverse_from_state_space",
    "Region", "SuperStabilizerTableau", "TableauError", "gf2_rank", *_LAZY,
])
