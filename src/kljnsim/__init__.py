"""Resistor-switching key exchange simulator with an attack toolkit.

The package models the classical two-resistor key exchange loop whose
security rests on thermal noise symmetry, plus an eavesdropper exploiting
a parasitic periodic source in series with one party's resistor.  See the
README for the physics, the protocols, and the command-line interface.

These names are the library API the README documents.  Everything else
lives in the module that defines it and assumes input these names, or the
command line, have already checked.
"""

from .attacks import SpectralAttack, ThresholdAttack
from .channel import KljnConfig, PeriodicSource, ResistorPair, simulate_session
from .errors import ConfigurationError, ShapeMismatchError
from .experiment import Notch, RaiseTemperature, run_column, run_point, sweep, teff_of_ueff

__version__ = "0.1.0"

__all__ = [
    "ConfigurationError",
    "KljnConfig",
    "Notch",
    "PeriodicSource",
    "RaiseTemperature",
    "ResistorPair",
    "ShapeMismatchError",
    "SpectralAttack",
    "ThresholdAttack",
    "run_column",
    "run_point",
    "simulate_session",
    "sweep",
    "teff_of_ueff",
]
