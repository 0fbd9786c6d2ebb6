"""Classical simulation of operator scrambling in super-Clifford circuits."""

__version__ = "0.1.0"

from .model import (
    C3,
    OperatorProgram,
    ProgramError,
    SuperPauli,
    Swap,
    T,
    localize_c3,
    parse_program,
    format_program,
    reverse_from_state_space,
)
from .tableau import Region, SuperStabilizerTableau, TableauError
from .oracle import (
    GateTableReport,
    OperatorWavefunction,
    OracleError,
    verify_gate_tables,
)
from .experiments import (
    EntropySeries,
    ExperimentConfig,
    ExperimentError,
    build_ghz_program,
    circuit_stream,
    estimate_saturation_time,
    fit_growth_rate,
    page_value,
    random_step,
    run_random_ensemble,
)
from .gf2 import gf2_rank

__all__ = [
    "C3",
    "EntropySeries",
    "ExperimentConfig",
    "ExperimentError",
    "GateTableReport",
    "OperatorProgram",
    "OperatorWavefunction",
    "OracleError",
    "ProgramError",
    "Region",
    "SuperPauli",
    "SuperStabilizerTableau",
    "Swap",
    "T",
    "TableauError",
    "build_ghz_program",
    "circuit_stream",
    "estimate_saturation_time",
    "fit_growth_rate",
    "format_program",
    "gf2_rank",
    "localize_c3",
    "page_value",
    "parse_program",
    "random_step",
    "reverse_from_state_space",
    "run_random_ensemble",
    "verify_gate_tables",
]
