"""Resistor-switching key exchange simulator with an attack toolkit.

The package models the classical two-resistor key exchange loop whose
security rests on thermal noise symmetry, plus an eavesdropper exploiting
a parasitic periodic source in series with one party's resistor.  See the
README for the physics, the protocols, and the command-line interface.
"""

from .attacks import (
    AttackConfig,
    AttackMode,
    HfPreparation,
    LfDecision,
    UNDETERMINED,
    default_band,
    hf_ac_power,
    hf_band,
    hf_decide,
    hf_prepare,
    hf_source_band,
    lf_decide,
    lf_gamma,
    lf_threshold,
)
from .channel import (
    SESSION_CSV_COLUMNS,
    KljnConfig,
    PeriodicSource,
    ResistorPair,
    Session,
    SessionChunk,
    Situation,
    divider_ac,
    dump_session_csv,
    simulate_session,
    wire_current,
    wire_noise,
)
from .errors import ConfigurationError, ShapeMismatchError
from .experiment import (
    SWEEP_CSV_COLUMNS,
    AttackOutcome,
    Notch,
    RaiseTemperature,
    SweepPoint,
    notch_filter,
    run_column,
    run_point,
    sweep,
    teff_of_ueff,
    u_eff_of_teff,
    write_sweep_csv,
)
from .noise import (
    BOLTZMANN,
    generate_unit_gbwn,
    johnson_rms,
    mix_seed,
    periodogram,
)

__version__ = "0.1.0"

__all__ = [
    "AttackConfig",
    "AttackMode",
    "AttackOutcome",
    "BOLTZMANN",
    "ConfigurationError",
    "HfPreparation",
    "KljnConfig",
    "LfDecision",
    "Notch",
    "PeriodicSource",
    "RaiseTemperature",
    "ResistorPair",
    "SESSION_CSV_COLUMNS",
    "SWEEP_CSV_COLUMNS",
    "Session",
    "SessionChunk",
    "ShapeMismatchError",
    "Situation",
    "SweepPoint",
    "UNDETERMINED",
    "default_band",
    "divider_ac",
    "dump_session_csv",
    "generate_unit_gbwn",
    "hf_ac_power",
    "hf_band",
    "hf_decide",
    "hf_prepare",
    "hf_source_band",
    "johnson_rms",
    "lf_decide",
    "lf_gamma",
    "lf_threshold",
    "mix_seed",
    "notch_filter",
    "periodogram",
    "run_column",
    "run_point",
    "simulate_session",
    "sweep",
    "teff_of_ueff",
    "u_eff_of_teff",
    "wire_current",
    "wire_noise",
    "write_sweep_csv",
]
