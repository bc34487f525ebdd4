"""Command-line front end.

Four subcommands share one configuration model:

* ``simulate``: run one session, dump every sample as CSV.
* ``attack``: run one session plus one attack, print a one-row summary.
* ``sweep``: attack over a (source frequency, noise level) grid.
* ``defend``: the same sweep with a countermeasure enabled.

Every configuration key is declared once, as a row of ``_KEYS``: its type,
flag, help text and default (or that it is required).  Values resolve in
four layers, later wins: those defaults, compiled-in preset, config file,
command-line flags.  Unknown config keys are hard errors.  Output files
are never overwritten without ``--force``.  The effective configuration is
echoed to stderr before the run; results go to ``--out`` or stdout.
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
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Iterator, NamedTuple, TextIO

import numpy as np

from .attacks import AttackConfig, AttackMode, resolve_band
from .channel import KljnConfig, PeriodicSource, ResistorPair, dump_session_csv, simulate_session
from .errors import ConfigurationError, ShapeMismatchError
from .experiment import (
    DefenseKind,
    DefenseSpec,
    SweepPoint,
    _check_notch,
    run_point,
    sweep,
    teff_of_ueff,
    u_eff_of_teff,
    write_sweep_csv,
)

__all__ = ["PRESETS", "RunManifest", "dispatch", "main", "parse_config"]


def _parse_float_list(raw: str) -> list[float]:
    values = [float(part) for part in raw.split(",") if part.strip()]
    if not values:
        raise ValueError(f"empty list: {raw!r}")
    return values


_REQUIRED: Any = object()  # the default of a key every run must set


class Key(NamedTuple):
    """One configuration key: ``[section] name`` in a file, ``flag`` on the line."""

    section: str
    name: str
    parse: Callable[[str], Any]  # applied to file strings and flag values
    flag: str | None
    help: str
    default: Any = None  # None: optional, absent unless set
    choices: tuple[str, ...] | None = None  # the values the flag accepts


_KEYS = (
    Key("channel", "r_low_ohm", float, None, "low resistance in ohms", _REQUIRED),
    Key("channel", "r_high_ohm", float, None, "high resistance in ohms", _REQUIRED),
    Key("channel", "t_eff_k", float, "--t-eff", "effective temperature in kelvin"),
    Key("channel", "u_eff_v", float, "--u-eff", "wire noise rms in volts; sets t_eff_k"),
    Key("channel", "f_b_hz", float, None, "noise bandwidth in Hz", _REQUIRED),
    Key("channel", "f_c_hz", float, None, "clock frequency in Hz", _REQUIRED),
    Key("channel", "amplitude_v", float, "--amplitude", "source amplitude in volts", _REQUIRED),
    Key("channel", "f_a_hz", float, "--f-a", "source frequency in Hz", _REQUIRED),
    Key("channel", "phase_rad", float, None, "source phase in radians", 0.0),
    Key("channel", "n_secure_bits", int, "--bits", "secure bits per session", _REQUIRED),
    Key("channel", "seed", int, "--seed", "session seed", 42),
    Key("attack", "mode", str.strip, "--mode", "attack protocol", _REQUIRED,
        tuple(m.value for m in AttackMode)),
    Key("attack", "kappa", float, "--kappa", "threshold scale", 0.5),
    Key("attack", "ensemble_size", int, "--ensemble-size", "rehearsal periods", 1000),
    Key("attack", "band_lo_hz", float, "--band-lo", "band lower edge in Hz"),
    Key("attack", "band_hi_hz", float, "--band-hi", "band upper edge in Hz"),
    Key("defense", "kind", str.strip, "--defense", "countermeasure kind (default notch)", "none",
        tuple(k.value for k in DefenseKind if k is not DefenseKind.NONE)),
    Key("defense", "notch_center_hz", float, "--notch-center", "notch center in Hz"),
    Key("defense", "notch_halfwidth_hz", float, "--notch-halfwidth", "notch halfwidth in Hz"),
    Key("defense", "target_t_eff_k", float, "--target-t-eff", "raised temperature in kelvin"),
    Key("grid", "u_eff_min_v", float, "--u-eff-min", "grid lower edge in volts", 0.01),
    Key("grid", "u_eff_max_v", float, "--u-eff-max", "grid upper edge in volts", 100.0),
    Key("grid", "u_eff_points", int, "--u-eff-points", "grid size", 25),
    Key("grid", "f_a_list_hz", _parse_float_list, "--f-a-list",
        "source frequencies to sweep, in Hz, comma-separated"),
)
_LOOKUP = {(key.section, key.name): key for key in _KEYS}
_SECTIONS = tuple(dict.fromkeys(key.section for key in _KEYS))


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
class RunManifest:
    """Everything one invocation needs, before resolution."""

    command: str
    config_path: str | None = None
    preset: str | None = None
    out: str | None = None
    force: bool = False
    threads: int = 1
    overrides: dict[tuple[str, str], Any] = field(default_factory=dict)


@dataclass
class ResolvedSetup:
    """Typed objects built from the merged configuration layers."""

    config: KljnConfig
    attack: AttackConfig
    defense: DefenseSpec
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


def _merge_layers(manifest: RunManifest) -> dict[str, dict[str, Any]]:
    merged: dict[str, dict[str, Any]] = {section: {} for section in _SECTIONS}
    for key in _KEYS:
        if key.default is not None and key.default is not _REQUIRED:
            merged[key.section][key.name] = key.default
    if manifest.preset is not None:
        if manifest.preset not in PRESETS:
            raise ConfigurationError(
                f"unknown preset {manifest.preset!r}; available: "
                f"{', '.join(sorted(PRESETS))}"
            )
        for section, values in PRESETS[manifest.preset].items():
            merged[section].update(values)
    if manifest.config_path is not None:
        for section, values in _read_config_file(manifest.config_path).items():
            merged[section].update(values)
    for (section, name), value in manifest.overrides.items():
        merged[section][name] = value
    return merged


def _check_keys(merged: dict[str, dict[str, Any]]) -> None:
    """Reject missing required keys and non-finite floats, naming each key."""
    missing = [
        f"{key.section}.{key.name}"
        for key in _KEYS
        if key.default is _REQUIRED and key.name not in merged[key.section]
    ]
    if "t_eff_k" not in merged["channel"] and "u_eff_v" not in merged["channel"]:
        missing.append("channel.t_eff_k (or channel.u_eff_v)")
    if missing:
        raise ConfigurationError(
            f"missing required keys: {', '.join(missing)}; give --preset, a config file, or flags"
        )
    for key in _KEYS:
        value = merged[key.section].get(key.name)
        if key.parse is float and value is not None and not math.isfinite(value):
            raise ConfigurationError(
                f"{key.section}.{key.name} ({key.help}) must be finite, got {value}"
            )


@contextmanager
def _naming(section: str) -> Iterator[None]:
    """Prefix a library error with the ``section`` keys its message names.

    Library objects name their fields (``f_b``), which are the key names
    without their unit suffix (``f_b_hz``).
    """
    try:
        yield
    except ConfigurationError as error:
        words = set(re.findall(r"\w+", str(error)))
        named = [
            f"{section}.{key.name}"
            for key in _KEYS
            if key.section == section and {key.name, key.name.rsplit("_", 1)[0]} & words
        ]
        if not named:
            raise
        raise ConfigurationError(f"{', '.join(named)}: {error}") from None


def _build_setup(merged: dict[str, dict[str, Any]], command: str) -> ResolvedSetup:
    _check_keys(merged)
    channel = dict(merged["channel"])
    attack_section = dict(merged["attack"])
    defense_section = dict(merged["defense"])
    grid_section = dict(merged["grid"])

    with _naming("channel"):
        resistors = ResistorPair(channel["r_low_ohm"], channel["r_high_ohm"])
        if "u_eff_v" in channel:
            channel["t_eff_k"] = teff_of_ueff(channel["u_eff_v"], resistors, channel["f_b_hz"])
        source = PeriodicSource(
            amplitude=channel["amplitude_v"],
            frequency=channel["f_a_hz"],
            phase=channel["phase_rad"],
        )
        config = KljnConfig(
            resistors=resistors,
            t_eff=channel["t_eff_k"],
            f_b=channel["f_b_hz"],
            f_c=channel["f_c_hz"],
            source=source,
            seed=channel["seed"],
            n_secure_bits=channel["n_secure_bits"],
        )

    try:
        mode = AttackMode(attack_section["mode"])
    except ValueError:
        raise ConfigurationError(
            f"attack.mode must be one of {[m.value for m in AttackMode]}, "
            f"got {attack_section['mode']!r}"
        ) from None
    edges = [attack_section.get(name) for name in ("band_lo_hz", "band_hi_hz")]
    if (edges[0] is None) != (edges[1] is None):
        raise ConfigurationError("attack.band_lo_hz and attack.band_hi_hz must be given together")
    band = None if edges[0] is None else tuple(edges)
    with _naming("attack"):
        attack = AttackConfig(
            mode=mode,
            kappa=attack_section["kappa"],
            ensemble_size=attack_section["ensemble_size"],
            band=band,
        )
        # An explicit band is the same in every sweep column; a default one is not.
        sweeping = command in ("sweep", "defend")
        if mode is AttackMode.HIGH_FREQ and (command == "attack" or (sweeping and band)):
            resolve_band(config, attack)

    kind_name = defense_section["kind"]
    if command == "defend" and kind_name == "none":
        kind_name = "notch"  # defend without an explicit kind notches the source
    try:
        kind = DefenseKind(kind_name)
    except ValueError:
        raise ConfigurationError(
            f"defense.kind must be one of {[k.value for k in DefenseKind]}, "
            f"got {kind_name!r}"
        ) from None
    halfwidth = defense_section.get("notch_halfwidth_hz")
    if kind is DefenseKind.NOTCH and halfwidth is None:
        halfwidth = config.f_c  # one clock-width each side by default
    with _naming("defense"):
        defense = DefenseSpec(
            kind=kind,
            notch_center=defense_section.get("notch_center_hz"),
            notch_halfwidth=halfwidth,
            target_t_eff=defense_section.get("target_t_eff_k"),
        )
    defense_section["kind"] = kind_name
    if halfwidth is not None:
        defense_section["notch_halfwidth_hz"] = halfwidth

    u_min = grid_section["u_eff_min_v"]
    u_max = grid_section["u_eff_max_v"]
    u_points = grid_section["u_eff_points"]
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
    u_eff_grid = [
        float(v) for v in np.logspace(math.log10(u_min), math.log10(u_max), u_points)
    ]
    f_a_list = [float(f) for f in grid_section.get("f_a_list_hz", [source.frequency])]
    grid_section["f_a_list_hz"] = f_a_list
    default_notch = kind is DefenseKind.NOTCH and defense.notch_center is None
    for f_a in f_a_list if sweeping else ():
        context = f"grid.f_a_list_hz holds {f_a:g}"
        try:
            column = replace(config, source=replace(source, frequency=f_a))
            if mode is AttackMode.HIGH_FREQ and band is None:
                resolve_band(column, attack)
            if command == "defend" and default_notch:
                context += (" and the notch center defaults to the source frequency"
                            " (set defense.notch_center_hz)")
                _check_notch(config.sample_rate, f_a, halfwidth)
        except ConfigurationError as error:
            raise ConfigurationError(f"{context}: {error}") from None

    sections = {
        "channel": channel,
        "attack": attack_section,
        "defense": defense_section,
        "grid": grid_section,
    }
    return ResolvedSetup(config, attack, defense, u_eff_grid, f_a_list, sections)


def parse_config(
    path: str | Path | None,
    preset: str | None = None,
    command: str = "sweep",
) -> ResolvedSetup:
    """Resolve a config file and/or preset into typed run objects."""
    manifest = RunManifest(
        command=command,
        config_path=None if path is None else str(path),
        preset=preset,
    )
    return _build_setup(_merge_layers(manifest), command)


# Sections each command reads: it echoes their keys and takes their flags.
_ECHO_SECTIONS = {
    "simulate": ("channel",),
    "attack": ("attack", "channel"),
    "sweep": ("attack", "channel", "grid"),
    "defend": ("attack", "channel", "defense", "grid"),
}
# Channel keys a sweep grid overrides cell by cell.
_GRID_KEYS = ("t_eff_k", "u_eff_v", "f_a_hz")


def _command_keys(command: str) -> list[Key]:
    """The keys ``command`` uses: it echoes them and takes their flags."""
    sweeping = command in ("sweep", "defend")
    return [
        key
        for key in _KEYS
        if key.section in _ECHO_SECTIONS[command]
        and not (sweeping and key.section == "channel" and key.name in _GRID_KEYS)
    ]


def _echo_setup(setup: ResolvedSetup, manifest: RunManifest, stream: TextIO) -> None:
    """Echo the values the command uses, as ``# section.key = value`` lines."""
    print(f"# command: {manifest.command}", file=stream)
    for key in sorted(_command_keys(manifest.command)):  # by section, then name
        value = setup.sections[key.section].get(key.name)
        if value is None:
            continue
        if isinstance(value, list):
            value = ",".join(f"{v:g}" for v in value)
        print(f"# {key.section}.{key.name} = {value}", file=stream)
    config = setup.config
    print(f"# derived.samples_per_bit = {config.samples_per_bit}", file=stream)
    print(f"# derived.sample_rate_hz = {config.sample_rate:g}", file=stream)
    if manifest.command in ("sweep", "defend"):
        cells = len(setup.u_eff_grid) * len(setup.f_a_list)
        print(f"# derived.sweep_cells = {cells}", file=stream)
    else:
        u_eff = u_eff_of_teff(config.t_eff, config.resistors, config.f_b)
        print(f"# derived.u_eff_vrms = {u_eff:.6g}", file=stream)


@contextmanager
def _output(manifest: RunManifest) -> Iterator[TextIO]:
    """The handle results go to: stdout, or a file that appears only on success.

    A file target is written under a temporary sibling name and moved into
    place once the run succeeds, so a failed run leaves no partial file and
    never destroys the one ``--force`` would have replaced.
    """
    if manifest.out is None:
        yield sys.stdout
        return
    path = Path(manifest.out)
    if path.exists() and not manifest.force:
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


def dispatch(manifest: RunManifest) -> int:
    """Resolve, run, and write one invocation.  Returns the exit code."""
    if manifest.threads < 1:
        raise ConfigurationError(f"--threads must be at least 1, got {manifest.threads}")
    if manifest.command not in _ECHO_SECTIONS:
        raise ConfigurationError(f"unknown command {manifest.command!r}")
    start = time.perf_counter()
    setup = _build_setup(_merge_layers(manifest), manifest.command)
    _echo_setup(setup, manifest, sys.stderr)

    with _output(manifest) as handle:
        if manifest.command == "simulate":
            session = simulate_session(setup.config)
            dump_session_csv(session, handle)
            secure_bits = int(session.secure.sum())
        elif manifest.command == "attack":
            outcome = run_point(setup.config, setup.attack)
            point = SweepPoint(
                t_eff=setup.config.t_eff,
                u_eff=u_eff_of_teff(setup.config.t_eff, setup.config.resistors, setup.config.f_b),
                f_a=setup.config.source.frequency,
                mode=setup.attack.mode,
                outcome=outcome,
            )
            write_sweep_csv([point], setup.config, handle)
            secure_bits = outcome.n_secure
        else:
            defense = setup.defense if manifest.command == "defend" else None
            points = sweep(
                setup.config,
                setup.attack,
                u_eff_grid=setup.u_eff_grid,
                f_a_list=setup.f_a_list,
                defense=defense,
                max_workers=manifest.threads,
            )
            write_sweep_csv(points, setup.config, handle)
            secure_bits = sum(pt.outcome.n_secure for pt in points)

    elapsed = time.perf_counter() - start
    print(
        f"finished in {elapsed:.2f} s; {secure_bits} secure bits simulated",
        file=sys.stderr,
    )
    return 0


_COMMAND_HELP = {
    "simulate": "run one session and dump all samples",
    "attack": "attack one operating point",
    "sweep": "attack across a noise-level grid",
    "defend": "sweep with a countermeasure enabled",
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kljnsim",
        description="Resistor-switching key exchange simulator and attack toolkit",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    for command, help_text in _COMMAND_HELP.items():
        sub = commands.add_parser(command, help=help_text)
        sub.add_argument("--config", metavar="PATH", help="INI config file")
        sub.add_argument(
            "--preset", metavar="NAME", help=f"one of: {', '.join(sorted(PRESETS))}"
        )
        sub.add_argument("--out", metavar="PATH", help="output file (default stdout)")
        sub.add_argument("--force", action="store_true", help="allow overwriting --out")
        sub.add_argument(
            "--threads", type=int, default=1, metavar="N", help="parallel sweep columns"
        )
        for key in _command_keys(command):
            if key.flag is not None:
                sub.add_argument(key.flag, type=key.parse, choices=key.choices, help=key.help)
    return parser


def _manifest_from_args(args: argparse.Namespace) -> RunManifest:
    overrides: dict[tuple[str, str], Any] = {}
    for key in _command_keys(args.command):
        # argparse names a flag's attribute after the flag: --u-eff is u_eff
        value = None if key.flag is None else getattr(args, key.flag[2:].replace("-", "_"))
        if value is not None:
            overrides[key.section, key.name] = value
    return RunManifest(
        command=args.command,
        config_path=args.config,
        preset=args.preset,
        out=args.out,
        force=args.force,
        threads=args.threads,
        overrides=overrides,
    )


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return dispatch(_manifest_from_args(args))
    except (ConfigurationError, ShapeMismatchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
