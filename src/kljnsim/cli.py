"""Command-line front end.

Four subcommands share one configuration model:

* ``simulate``: run one session, dump every sample as CSV.
* ``attack``: run one session plus one attack, print a one-row summary.
* ``sweep``: attack over a (source frequency, noise level) grid.
* ``defend``: the same sweep with a countermeasure enabled.

Every configuration key is declared once, as a row of ``_KEYS``: its type,
flag, help text and default (or that it is required).  Each kind of attack
or defense is a type in ``_KINDS``; it reads the keys that name its
fields, which default to those fields' defaults.  ``_COMMANDS`` gives each
command's help and the sections it checks, builds, echoes and takes flags
for.  Values resolve in four layers, later wins: key defaults, compiled-in
preset, config file, command-line flags.  Unknown config keys are hard
errors.  Output files are never overwritten without ``--force``.  The
effective configuration is echoed to stderr before the run; results go to
``--out`` or stdout.
"""

from __future__ import annotations

import argparse
import configparser
import math
import os
import re
import sys
import time
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, fields, replace
from pathlib import Path
from typing import Any, Callable, Iterator, NamedTuple, TextIO

import numpy as np

from .attacks import SpectralAttack, ThresholdAttack, resolve_band
from .channel import KljnConfig, PeriodicSource, ResistorPair, dump_session_csv, simulate_session
from .errors import ConfigurationError, ShapeMismatchError
from .experiment import (
    Notch,
    RaiseTemperature,
    run_point,
    sweep,
    teff_of_ueff,
    u_eff_of_teff,
    write_sweep_csv,
)

__all__ = ["PRESETS", "dispatch", "main", "resolve"]


def _parse_float_list(raw: str) -> list[float]:
    values = [float(part) for part in raw.split(",") if part.strip()]
    if not values:
        raise ValueError(f"empty list: {raw!r}")
    return values


_REQUIRED: Any = object()  # the default of a key every command reading it must set
# The kinds a selector key chooses between, by (section, selector): the type
# each kind builds, which reads the keys of the section that name its fields.
_KINDS: dict[tuple[str, str], dict[str, type]] = {
    ("attack", "mode"): {kind.mode: kind for kind in (ThresholdAttack, SpectralAttack)},
    ("defense", "kind"): {"notch": Notch, "raise_temperature": RaiseTemperature},
}


class Key(NamedTuple):
    """One configuration key: ``[section] name`` in a file, ``flag`` on the line."""

    section: str
    name: str
    parse: Callable[[str], Any]  # applied to file strings and flag values
    flag: str | None
    help: str
    default: Any = None  # None: optional, absent unless set
    choices: tuple[str, ...] | None = None  # the only values it takes, from any layer


_KEYS = (
    Key("channel", "r_low_ohm", float, None, "low resistance in ohms", _REQUIRED),
    Key("channel", "r_high_ohm", float, None, "high resistance in ohms", _REQUIRED),
    Key("channel", "t_eff_k", float, "--t-eff", "effective temperature in kelvin", _REQUIRED),
    Key("channel", "u_eff_v", float, "--u-eff", "wire noise rms in volts; sets t_eff_k"),
    Key("channel", "f_b_hz", float, None, "noise bandwidth in Hz", _REQUIRED),
    Key("channel", "f_c_hz", float, None, "clock frequency in Hz", _REQUIRED),
    Key("channel", "amplitude_v", float, "--amplitude", "source amplitude in volts", _REQUIRED),
    Key("channel", "f_a_hz", float, "--f-a", "source frequency in Hz", _REQUIRED),
    Key("channel", "phase_rad", float, None, "source phase in radians", PeriodicSource.phase),
    Key("channel", "n_secure_bits", int, "--bits", "secure bits per session", _REQUIRED),
    Key("channel", "seed", int, "--seed", "session seed", 42),
    Key("attack", "mode", str.strip, "--mode", "attack protocol", _REQUIRED,
        tuple(_KINDS["attack", "mode"])),
    Key("attack", "kappa", float, "--kappa", "lowfreq threshold scale"),
    Key("attack", "ensemble_size", int, "--ensemble-size", "highfreq rehearsal periods"),
    Key("attack", "band_lo_hz", float, "--band-lo", "highfreq band lower edge in Hz"),
    Key("attack", "band_hi_hz", float, "--band-hi", "highfreq band upper edge in Hz"),
    Key("defense", "kind", str.strip, "--defense", "countermeasure kind", "notch",
        tuple(_KINDS["defense", "kind"])),
    Key("defense", "notch_center_hz", float, "--notch-center", "notch center in Hz"),
    Key("defense", "notch_halfwidth_hz", float, "--notch-halfwidth", "notch halfwidth in Hz"),
    Key("defense", "target_t_eff_k", float, "--target-t-eff", "raised temperature in kelvin"),
    Key("grid", "u_eff_min_v", float, "--u-eff-min", "grid lower edge in volts", 0.01),
    Key("grid", "u_eff_max_v", float, "--u-eff-max", "grid upper edge in volts", 100.0),
    Key("grid", "u_eff_points", int, "--u-eff-points", "grid size", 25),
    Key("grid", "f_a_list_hz", _parse_float_list, "--f-a-list",
        "source frequencies to sweep, in Hz, comma-separated", _REQUIRED),
)
_LOOKUP = {(key.section, key.name): key for key in _KEYS}
_SECTIONS = tuple(dict.fromkeys(key.section for key in _KEYS))
# Required keys another key may set instead: u_eff_v sets t_eff_k, and a
# sweep over one source frequency may give it as f_a_hz.
_STAND_INS = {
    ("channel", "t_eff_k"): ("channel", "u_eff_v"),
    ("grid", "f_a_list_hz"): ("channel", "f_a_hz"),
}
# Each command's help and the sections it reads: only these are checked,
# built and echoed, and only their keys take flags.
_COMMANDS = {
    "simulate": ("run one session and dump all samples", ("channel",)),
    "attack": ("attack one operating point", ("attack", "channel")),
    "sweep": ("attack across a noise-level grid", ("attack", "channel", "grid")),
    "defend": ("sweep with a countermeasure enabled", ("attack", "channel", "defense", "grid")),
}
# Channel keys a sweep grid overrides cell by cell.
_GRID_KEYS = ("t_eff_k", "u_eff_v", "f_a_hz")


def _fields_named(name: str) -> set[str]:
    """The library field names a key stands for: its name, with or without its unit suffix."""
    return {name, name.rsplit("_", 1)[0]}


def _command_keys(command: str) -> list[Key]:
    """The keys ``command`` reads: it checks and echoes them and takes their flags."""
    sections = _COMMANDS[command][1]
    return [key for key in _KEYS if key.section in sections
            and not ("grid" in sections and key.section == "channel" and key.name in _GRID_KEYS)]


def _preset(f_c_hz: float, f_a_list_hz: list[float], mode: str) -> dict[str, dict[str, Any]]:
    return {
        "channel": {
            "r_low_ohm": 1e3,
            "r_high_ohm": 1e4,
            "t_eff_k": 9e15,
            "f_b_hz": 1e5,
            "f_c_hz": f_c_hz,
            "amplitude_v": 1.0,
            "f_a_hz": f_a_list_hz[0],
            "n_secure_bits": 1000,
        },
        "attack": {"mode": mode},
        "defense": {},
        "grid": {"f_a_list_hz": f_a_list_hz},
    }


# Demonstration operating points, compiled in so runs are reproducible
# without any files; each holds only what differs from the key defaults.
# fig5: threshold protocol below the clock frequency.  fig6: spectral
# protocol above it.
PRESETS: dict[str, dict[str, dict[str, Any]]] = {
    "fig5": _preset(1e3, [318.30, 101.32, 32.25], "lowfreq"),
    "fig6": _preset(500.0, [2000.0, 16000.0, 32000.0], "highfreq"),
}


@dataclass
class ResolvedSetup:
    """The typed objects a command reads; None or empty for a section it does not.

    ``config`` is the first cell the run executes, and ``sections`` holds
    the values the command reads.
    """

    config: KljnConfig
    attack: ThresholdAttack | SpectralAttack | None
    defense: Notch | RaiseTemperature | None
    u_eff_grid: list[float]
    f_a_list: list[float]
    sections: dict[str, dict[str, Any]]


def _read_config_file(path: str | Path) -> dict[str, dict[str, Any]]:
    """Parse an INI-style config file against the key table, strictly."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path) as handle:
            parser.read_file(handle)
    except OSError as exc:
        raise ConfigurationError(f"cannot read config file {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigurationError(f"malformed config file {path}: {exc}") from exc

    data: dict[str, dict[str, Any]] = {}
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigurationError(
                f"unknown config section [{section}] in {path}; "
                f"known sections: {', '.join(sorted(_SECTIONS))}"
            )
        data[section] = {}
        for name, raw in parser.items(section):
            key = _LOOKUP.get((section, name))
            if key is None:
                known = sorted(other.name for other in _KEYS if other.section == section)
                raise ConfigurationError(
                    f"unknown config key {section}.{name} in {path}; "
                    f"known keys: {', '.join(known)}"
                )
            try:
                data[section][name] = key.parse(raw)
            except ValueError as exc:
                raise ConfigurationError(
                    f"bad value for {section}.{name}: {raw!r} ({exc})"
                ) from exc
    return data


def _merge_layers(
    config_path: str | None, preset: str | None, overrides: dict[str, Any]
) -> dict[str, dict[str, Any]]:
    merged: dict[str, dict[str, Any]] = {section: {} for section in _SECTIONS}
    for key in _KEYS:
        if key.default is not None and key.default is not _REQUIRED:
            merged[key.section][key.name] = key.default
    if preset is not None:
        if preset not in PRESETS:
            raise ConfigurationError(
                f"unknown preset {preset!r}; available: {', '.join(sorted(PRESETS))}"
            )
        for section, values in PRESETS[preset].items():
            merged[section].update(values)
    if config_path is not None:
        for section, values in _read_config_file(config_path).items():
            merged[section].update(values)
    for dotted, value in overrides.items():
        section, name = dotted.split(".")
        merged[section][name] = value
    return merged


def _check_keys(merged: dict[str, dict[str, Any]], keys: list[Key]) -> None:
    """Reject missing keys, non-finite floats and unlisted choices among ``keys``, naming each."""
    missing = []
    for key in keys:
        if key.default is not _REQUIRED or key.name in merged[key.section]:
            continue
        stand_in = _STAND_INS.get((key.section, key.name))
        if stand_in is None:
            missing.append(f"{key.section}.{key.name}")
        elif stand_in[1] not in merged[stand_in[0]]:
            missing.append(f"{key.section}.{key.name} (or {'.'.join(stand_in)})")
    if missing:
        raise ConfigurationError(
            f"missing required keys: {', '.join(missing)}; give --preset, a config file, or flags"
        )
    for key in keys:
        value = merged[key.section].get(key.name)
        if key.parse is float and value is not None and not math.isfinite(value):
            raise ConfigurationError(
                f"{key.section}.{key.name} ({key.help}) must be finite, got {value}"
            )
        if key.choices is not None and value is not None and value not in key.choices:
            raise ConfigurationError(
                f"{key.section}.{key.name} must be one of {list(key.choices)}, got {value!r}"
            )


@contextmanager
def _naming(
    keys: list[Key], merged: dict[str, dict[str, Any]], *sections: str, context: str | None = None
) -> Iterator[None]:
    """Prefix a library error with the keys of ``sections`` its message names, then ``context``.

    Library objects name their fields (``f_b``), which are the key names
    without their unit suffix (``f_b_hz``).  Only ``keys``, the keys the
    command reads, are named.  A key whose stand-in among them is set in
    ``merged`` took its value from the stand-in, which is named instead.
    ``context`` says what the keys cannot, such as which grid value failed.
    """
    try:
        yield
    except ConfigurationError as error:
        words = set(re.findall(r"\w+", str(error)))
        named = []
        for key in keys:
            if key.section in sections and _fields_named(key.name) & words:
                stand_in = _LOOKUP.get(_STAND_INS.get((key.section, key.name)))
                if stand_in in keys and stand_in.name in merged[stand_in.section]:
                    key = stand_in
                named.append(f"{key.section}.{key.name}")
        message = f"{', '.join(dict.fromkeys(named))}: {error}" if named else str(error)
        if context is not None:
            message = f"{context}: {message}"
        elif not named:
            raise
        raise ConfigurationError(message) from None


def resolve(
    command: str,
    config_path: str | None = None,
    preset: str | None = None,
    overrides: dict[str, Any] | None = None,
) -> ResolvedSetup:
    """Resolve the configuration layers into the objects ``command`` reads.

    ``overrides`` maps ``"section.name"`` keys to values that win over the
    preset and the config file.  Only the sections ``_COMMANDS[command]``
    lists are checked and built.  Every column the run executes, and its
    hottest cell, is checked here, so bad input fails before the echo,
    naming its key.
    """
    if command not in _COMMANDS:
        raise ConfigurationError(f"unknown command {command!r}")
    keys = _command_keys(command)
    merged = _merge_layers(config_path, preset, overrides or {})
    _check_keys(merged, keys)
    sections = {section: merged[section] for section in _COMMANDS[command][1]}
    channel, grid = sections["channel"], sections.get("grid")

    with _naming(keys, merged, "channel"):
        resistors = ResistorPair(channel["r_low_ohm"], channel["r_high_ohm"])
        if grid is None and "u_eff_v" in channel:
            channel["t_eff_k"] = teff_of_ueff(channel["u_eff_v"], resistors, channel["f_b_hz"])
        base = KljnConfig(  # a grid sets the temperature below, and each column its frequency
            resistors, channel["t_eff_k"] if grid is None else 0.0, channel["f_b_hz"],
            channel["f_c_hz"],
            PeriodicSource(channel["amplitude_v"], 0.0, channel["phase_rad"]),
            channel["seed"], channel["n_secure_bits"],
        )

    u_eff_grid: list[float] = []
    f_a_list = [channel.get("f_a_hz")]  # the one column of a point
    if grid is not None:
        u_min, u_max, u_points = grid["u_eff_min_v"], grid["u_eff_max_v"], grid["u_eff_points"]
        if u_points < 1:
            raise ConfigurationError(f"grid.u_eff_points must be at least 1, got {u_points}")
        if not 0 < u_min <= u_max:
            raise ConfigurationError(
                f"need 0 < grid.u_eff_min_v <= grid.u_eff_max_v, got {u_min}, {u_max}"
            )
        if u_min == u_max and u_points > 1:
            raise ConfigurationError(
                f"grid.u_eff_points must be 1 when the grid edges coincide, got {u_points}"
            )
        try:
            u_eff_grid = np.logspace(math.log10(u_min), math.log10(u_max), u_points).tolist()
        except (MemoryError, ValueError) as error:  # a size numpy cannot allocate
            raise ConfigurationError(f"grid.u_eff_points = {u_points}: {error}") from None
        # The edge cells are the coolest and hottest; a sweep's base is its first cell.
        edges = []
        for name, u_eff in (("u_eff_min_v", u_eff_grid[0]), ("u_eff_max_v", u_eff_grid[-1])):
            with _naming(keys, merged, context=f"grid.{name}"):
                edges.append(replace(base, t_eff=teff_of_ueff(u_eff, resistors, base.f_b)))
        base = edges[0]
        f_a_list = grid["f_a_list_hz"] = [float(f) for f in grid.get("f_a_list_hz", f_a_list)]

    # The attack and the defense: each section's selector picks a kind,
    # which is built from the keys it reads; any other key is an error.
    built: dict[str, Any] = {}
    for (name, selector), kinds in _KINDS.items():
        if name not in sections:
            continue
        section = sections[name]
        kind = kinds[section[selector]]
        # The key each of its fields reads; a field that no key names raises KeyError.
        by_field = {field: key.name for key in keys if key.section == name
                    for field in _fields_named(key.name)}
        names = {spec.name: by_field[spec.name] for spec in fields(kind)}
        stray = sorted(section.keys() - {selector, *names.values()})
        if stray:
            raise ConfigurationError(
                f"{', '.join(f'{name}.{key}' for key in stray)}: not read by the "
                f"{section[selector]} {name}"
            )
        if kind is Notch:
            section.setdefault("notch_halfwidth_hz", base.f_c)  # one clock-width each side
        for spec in fields(kind):  # a field without a default is a key the kind requires
            if spec.default is MISSING:
                _check_keys(merged, [_LOOKUP[name, names[spec.name]]._replace(default=_REQUIRED)])
            elif spec.default is not None:
                section.setdefault(names[spec.name], spec.default)  # so the echo shows it
        with _naming(keys, merged, name):
            built[name] = made = kind(**{field: section.get(key) for field, key in names.items()})
            # An explicit band or notch center is the same in every column.
            if isinstance(made, SpectralAttack) and made.band_lo is not None:
                resolve_band(base, made)
            if isinstance(made, Notch) and made.notch_center is not None:
                made.bins(base)
    attack, defense = built.get("attack"), built.get("defense")
    if isinstance(defense, RaiseTemperature):  # its target may be the hottest cell
        with _naming(keys, merged, context="defense.target_t_eff_k"):
            replace(base, t_eff=defense.target_t_eff)

    # Check each column the run executes: the source frequency, and the
    # band and notch bins that default to it.
    tracking = isinstance(defense, Notch) and defense.notch_center is None
    first = None
    for f_a in f_a_list:
        context = None if grid is None else f"grid.f_a_list_hz holds {f_a:g}"
        with _naming(keys, merged, "attack", "channel", context=context):
            column = replace(base, source=replace(base.source, frequency=f_a))
            if isinstance(attack, SpectralAttack):
                resolve_band(column, attack)
        if tracking:  # only defend tracks, and it always sweeps
            tracked = f"{context} and the notch center defaults to the source frequency"
            with _naming(keys, merged, "defense", context=tracked):
                defense.bins(column)
        first = first or column
    return ResolvedSetup(first, attack, defense, u_eff_grid, f_a_list, sections)


def _echo_setup(setup: ResolvedSetup, command: str, stream: TextIO) -> None:
    """Echo the values the command uses, as ``# section.key = value`` lines."""
    print(f"# command: {command}", file=stream)
    for key in sorted(_command_keys(command)):  # by section, then name
        value = setup.sections[key.section].get(key.name)
        if value is None:
            continue
        if isinstance(value, list):
            value = ",".join(f"{v:g}" for v in value)
        print(f"# {key.section}.{key.name} = {value}", file=stream)
    config = setup.config
    print(f"# derived.samples_per_bit = {config.samples_per_bit}", file=stream)
    print(f"# derived.sample_rate_hz = {config.sample_rate:g}", file=stream)
    if setup.u_eff_grid:
        cells = len(setup.u_eff_grid) * len(setup.f_a_list)
        print(f"# derived.sweep_cells = {cells}", file=stream)
    else:
        u_eff = u_eff_of_teff(config.t_eff, config.resistors, config.f_b)
        print(f"# derived.u_eff_vrms = {u_eff:.6g}", file=stream)


@contextmanager
def _output(out: str | None, force: bool) -> Iterator[TextIO]:
    """The handle results go to: stdout, or a file that appears only on success.

    A file target is written under a temporary sibling name and moved into
    place once the run succeeds, so a failed run leaves no partial file and
    never destroys the one ``--force`` would have replaced.  A target that
    is a directory, or lies in none, is refused before the run starts.
    """
    if out is None:
        yield sys.stdout
        return
    path = Path(out)
    if path.is_dir() or not path.parent.is_dir():
        raise ConfigurationError(f"--out must name a file in an existing directory, got {out}")
    if path.exists() and not force:
        raise ConfigurationError(
            f"refusing to overwrite existing {path}; pass --force to allow it"
        )
    partial = path.with_name(f".{path.name}.{os.getpid()}.partial")
    handle = open(partial, "x", newline="")
    try:
        with handle:
            yield handle
        os.replace(partial, path)
    finally:
        partial.unlink(missing_ok=True)


def dispatch(args: argparse.Namespace) -> int:
    """Resolve, run, and write one parsed invocation.  Returns the exit code.

    A key flag's value is the namespace attribute named by its key,
    ``"section.name"``.  Only the sweeping commands take ``--threads``.
    An error of the run itself names the keys its message names, as
    :func:`resolve` does.
    """
    sections = _COMMANDS[args.command][1]
    if "grid" in sections and args.threads < 1:
        raise ConfigurationError(f"--threads must be at least 1, got {args.threads}")
    start = time.perf_counter()
    overrides = {
        dest: value for dest, value in vars(args).items() if "." in dest and value is not None
    }
    setup = resolve(args.command, args.config, args.preset, overrides)
    _echo_setup(setup, args.command, sys.stderr)

    naming = _naming(_command_keys(args.command), setup.sections, *sections)
    with _output(args.out, args.force) as handle, naming:
        if args.command == "simulate":
            dump_session_csv(simulate_session(setup.config), handle)
        elif args.command == "attack":
            write_sweep_csv([run_point(setup.config, setup.attack)], handle)
        else:
            outcomes = sweep(
                setup.config,
                setup.attack,
                setup.u_eff_grid,
                setup.f_a_list,
                defense=setup.defense,
                max_workers=args.threads,
            )
            write_sweep_csv(outcomes, handle)

    elapsed = time.perf_counter() - start
    secure_bits = setup.config.n_secure_bits * (len(setup.u_eff_grid) * len(setup.f_a_list) or 1)
    print(f"finished in {elapsed:.2f} s; {secure_bits} secure bits simulated", file=sys.stderr)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kljnsim",
        description="Resistor-switching key exchange simulator and attack toolkit",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, sections) in _COMMANDS.items():
        sub = commands.add_parser(command, help=help_text)
        sub.add_argument("--config", metavar="PATH", help="INI config file")
        sub.add_argument(
            "--preset", metavar="NAME", help=f"one of: {', '.join(sorted(PRESETS))}"
        )
        sub.add_argument("--out", metavar="PATH", help="output file (default stdout)")
        sub.add_argument("--force", action="store_true", help="allow overwriting --out")
        if "grid" in sections:
            sub.add_argument(
                "--threads", type=int, default=1, metavar="N", help="parallel sweep columns"
            )
        for key in _command_keys(command):
            if key.flag is not None:
                sub.add_argument(key.flag, dest=f"{key.section}.{key.name}", type=key.parse,
                                 choices=key.choices, help=key.help)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return dispatch(args)
    except (ConfigurationError, ShapeMismatchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
