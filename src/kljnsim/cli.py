"""Command-line front end.

Four subcommands share one configuration model:

* ``simulate``: run one session, dump every sample as CSV.
* ``attack``: run one session plus one attack, print a one-row summary.
* ``sweep``: attack over a (source frequency, noise level) grid.
* ``defend``: the same sweep with a countermeasure enabled.

Values resolve in three layers, later wins: compiled-in preset, config
file, command-line flags.  Unknown config keys are hard errors.  Output
files are never overwritten without ``--force``.  The effective
configuration is echoed to stderr before the run; results go to ``--out``
or stdout.
"""

from __future__ import annotations

import argparse
import configparser
import math
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Iterator, TextIO

import numpy as np

from .attacks import AttackConfig, AttackMode
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


def _parse_bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _parse_float_list(raw: str) -> list[float]:
    values = [float(part) for part in raw.split(",") if part.strip()]
    if not values:
        raise ValueError(f"empty list: {raw!r}")
    return values


# section -> key -> converter applied to config-file strings
_SCHEMA: dict[str, dict[str, Callable[[str], Any]]] = {
    "channel": {
        "r_low_ohm": float,
        "r_high_ohm": float,
        "t_eff_k": float,
        "u_eff_v": float,
        "f_b_hz": float,
        "f_c_hz": float,
        "amplitude_v": float,
        "f_a_hz": float,
        "phase_rad": float,
        "n_secure_bits": int,
        "seed": int,
    },
    "attack": {
        "mode": str.strip,
        "kappa": float,
        "ensemble_size": int,
        "band_lo_hz": float,
        "band_hi_hz": float,
        "eve_knows_source": _parse_bool,
    },
    "defense": {
        "kind": str.strip,
        "notch_center_hz": float,
        "notch_halfwidth_hz": float,
        "target_t_eff_k": float,
    },
    "grid": {
        "u_eff_min_v": float,
        "u_eff_max_v": float,
        "u_eff_points": int,
        "f_a_list_hz": _parse_float_list,
    },
}

# Demonstration operating points, compiled in so runs are reproducible
# without any files.  fig5: threshold protocol below the clock frequency.
# fig6: spectral protocol above it.
PRESETS: dict[str, dict[str, dict[str, Any]]] = {
    "fig5": {
        "channel": {
            "r_low_ohm": 1e3,
            "r_high_ohm": 1e4,
            "t_eff_k": 9e15,
            "f_b_hz": 1e5,
            "f_c_hz": 1e3,
            "amplitude_v": 1.0,
            "f_a_hz": 318.30,
            "phase_rad": 0.0,
            "n_secure_bits": 1000,
            "seed": 42,
        },
        "attack": {
            "mode": "lowfreq",
            "kappa": 0.5,
            "ensemble_size": 1000,
            "eve_knows_source": True,
        },
        "defense": {"kind": "none"},
        "grid": {
            "u_eff_min_v": 0.01,
            "u_eff_max_v": 100.0,
            "u_eff_points": 25,
            "f_a_list_hz": [318.30, 101.32, 32.25],
        },
    },
    "fig6": {
        "channel": {
            "r_low_ohm": 1e3,
            "r_high_ohm": 1e4,
            "t_eff_k": 9e15,
            "f_b_hz": 1e5,
            "f_c_hz": 500.0,
            "amplitude_v": 1.0,
            "f_a_hz": 2000.0,
            "phase_rad": 0.0,
            "n_secure_bits": 1000,
            "seed": 42,
        },
        "attack": {
            "mode": "highfreq",
            "kappa": 0.5,
            "ensemble_size": 1000,
            "eve_knows_source": True,
        },
        "defense": {"kind": "none"},
        "grid": {
            "u_eff_min_v": 0.01,
            "u_eff_max_v": 100.0,
            "u_eff_points": 25,
            "f_a_list_hz": [2000.0, 16000.0, 32000.0],
        },
    },
}

_REQUIRED_CHANNEL_KEYS = (
    "r_low_ohm",
    "r_high_ohm",
    "f_b_hz",
    "f_c_hz",
    "amplitude_v",
    "f_a_hz",
    "n_secure_bits",
)


@dataclass
class RunManifest:
    """Everything one invocation needs, before resolution."""

    command: str
    config_path: str | None = None
    preset: str | None = None
    seed: int | None = None
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
    """Parse an INI-style config file against the schema, strictly."""
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
        if section not in _SCHEMA:
            raise ConfigurationError(
                f"unknown config section [{section}] in {path}; "
                f"known sections: {', '.join(sorted(_SCHEMA))}"
            )
        data[section] = {}
        for key, raw in parser.items(section):
            if key not in _SCHEMA[section]:
                raise ConfigurationError(
                    f"unknown config key {section}.{key} in {path}; "
                    f"known keys: {', '.join(sorted(_SCHEMA[section]))}"
                )
            try:
                data[section][key] = _SCHEMA[section][key](raw)
            except ValueError as exc:
                raise ConfigurationError(
                    f"bad value for {section}.{key}: {raw!r} ({exc})"
                ) from exc
    return data


def _merge_layers(manifest: RunManifest) -> dict[str, dict[str, Any]]:
    merged: dict[str, dict[str, Any]] = {section: {} for section in _SCHEMA}
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
    for (section, key), value in manifest.overrides.items():
        merged[section][key] = value
    if manifest.seed is not None:
        merged["channel"]["seed"] = manifest.seed
    return merged


def _build_setup(merged: dict[str, dict[str, Any]], command: str) -> ResolvedSetup:
    channel = dict(merged["channel"])
    attack_section = dict(merged["attack"])
    defense_section = dict(merged["defense"])
    grid_section = dict(merged["grid"])

    missing = [key for key in _REQUIRED_CHANNEL_KEYS if key not in channel]
    if "t_eff_k" not in channel and "u_eff_v" not in channel:
        missing.append("t_eff_k (or u_eff_v)")
    if missing:
        raise ConfigurationError(
            "missing required channel keys: "
            + ", ".join(f"channel.{key}" for key in missing)
            + "; give --preset, a config file, or flags"
        )
    if "mode" not in attack_section:
        raise ConfigurationError("missing required key attack.mode")

    if channel["f_b_hz"] <= channel["f_c_hz"]:
        raise ConfigurationError(
            "channel.f_b_hz must exceed channel.f_c_hz, got "
            f"{channel['f_b_hz']} and {channel['f_c_hz']}"
        )

    resistors = ResistorPair(channel["r_low_ohm"], channel["r_high_ohm"])
    if "u_eff_v" in channel:
        t_eff = teff_of_ueff(channel["u_eff_v"], resistors, channel["f_b_hz"])
        channel["t_eff_k"] = t_eff
    else:
        t_eff = channel["t_eff_k"]

    source = PeriodicSource(
        amplitude=channel["amplitude_v"],
        frequency=channel["f_a_hz"],
        phase=channel.get("phase_rad", 0.0),
    )
    config = KljnConfig(
        resistors=resistors,
        t_eff=t_eff,
        f_b=channel["f_b_hz"],
        f_c=channel["f_c_hz"],
        source=source,
        seed=channel.get("seed", 42),
        n_secure_bits=channel["n_secure_bits"],
    )

    try:
        mode = AttackMode(attack_section["mode"])
    except ValueError:
        raise ConfigurationError(
            f"attack.mode must be one of {[m.value for m in AttackMode]}, "
            f"got {attack_section['mode']!r}"
        ) from None
    band = None
    has_lo = "band_lo_hz" in attack_section
    has_hi = "band_hi_hz" in attack_section
    if has_lo != has_hi:
        raise ConfigurationError(
            "attack.band_lo_hz and attack.band_hi_hz must be given together"
        )
    if has_lo:
        band = (attack_section["band_lo_hz"], attack_section["band_hi_hz"])
    attack = AttackConfig(
        mode=mode,
        kappa=attack_section.get("kappa", 0.5),
        ensemble_size=attack_section.get("ensemble_size", 1000),
        band=band,
        eve_knows_source=attack_section.get("eve_knows_source", True),
    )

    kind_name = defense_section.get("kind", "none")
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
    defense = DefenseSpec(
        kind=kind,
        notch_center=defense_section.get("notch_center_hz"),
        notch_halfwidth=halfwidth,
        target_t_eff=defense_section.get("target_t_eff_k"),
    )
    defense_section["kind"] = kind_name
    if halfwidth is not None:
        defense_section["notch_halfwidth_hz"] = halfwidth

    u_min = grid_section.get("u_eff_min_v", 0.01)
    u_max = grid_section.get("u_eff_max_v", 100.0)
    u_points = grid_section.get("u_eff_points", 25)
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
    default_notch = kind is DefenseKind.NOTCH and defense.notch_center is None
    for f_a in f_a_list if command in ("sweep", "defend") else ():
        context = f"grid.f_a_list_hz holds {f_a:g}"
        try:
            replace(config, source=replace(source, frequency=f_a))
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
        "grid": {
            "u_eff_min_v": u_min,
            "u_eff_max_v": u_max,
            "u_eff_points": u_points,
            "f_a_list_hz": f_a_list,
        },
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


# Sections each command reads; the echo leaves out the rest.
_ECHO_SECTIONS = {
    "simulate": ("channel",),
    "attack": ("attack", "channel"),
    "sweep": ("attack", "channel", "grid"),
    "defend": ("attack", "channel", "defense", "grid"),
}
# Channel keys a sweep grid overrides cell by cell.
_GRID_KEYS = ("t_eff_k", "u_eff_v", "f_a_hz")


def _echo_setup(setup: ResolvedSetup, manifest: RunManifest, stream: TextIO) -> None:
    """Echo the values the command uses, as ``# section.key = value`` lines."""
    sweeping = manifest.command in ("sweep", "defend")
    print(f"# command: {manifest.command}", file=stream)
    for section in _ECHO_SECTIONS[manifest.command]:
        for key in sorted(setup.sections[section]):
            if sweeping and section == "channel" and key in _GRID_KEYS:
                continue
            value = setup.sections[section][key]
            if isinstance(value, list):
                value = ",".join(f"{v:g}" for v in value)
            print(f"# {section}.{key} = {value}", file=stream)
    config = setup.config
    print(f"# derived.samples_per_bit = {config.samples_per_bit}", file=stream)
    print(f"# derived.sample_rate_hz = {config.sample_rate:g}", file=stream)
    if sweeping:
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


def _add_common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", metavar="PATH", help="INI config file")
    sub.add_argument("--preset", metavar="NAME", help=f"one of: {', '.join(sorted(PRESETS))}")
    sub.add_argument("--seed", type=int, metavar="U64", help="session seed")
    sub.add_argument("--out", metavar="PATH", help="output file (default stdout)")
    sub.add_argument("--force", action="store_true", help="allow overwriting --out")
    sub.add_argument("--threads", type=int, default=1, metavar="N", help="parallel sweep cells")


# flag dest -> (section, key); applied when the flag was given
_FLAG_MAP: dict[str, tuple[str, str]] = {
    "u_eff": ("channel", "u_eff_v"),
    "t_eff": ("channel", "t_eff_k"),
    "f_a": ("channel", "f_a_hz"),
    "amplitude": ("channel", "amplitude_v"),
    "bits": ("channel", "n_secure_bits"),
    "mode": ("attack", "mode"),
    "kappa": ("attack", "kappa"),
    "ensemble_size": ("attack", "ensemble_size"),
    "band_lo": ("attack", "band_lo_hz"),
    "band_hi": ("attack", "band_hi_hz"),
    "defense": ("defense", "kind"),
    "notch_center": ("defense", "notch_center_hz"),
    "notch_halfwidth": ("defense", "notch_halfwidth_hz"),
    "target_t_eff": ("defense", "target_t_eff_k"),
    "u_eff_min": ("grid", "u_eff_min_v"),
    "u_eff_max": ("grid", "u_eff_max_v"),
    "u_eff_points": ("grid", "u_eff_points"),
    "f_a_list": ("grid", "f_a_list_hz"),
}


def _add_point_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--u-eff", dest="u_eff", type=float, help="wire noise rms in volts")
    sub.add_argument("--t-eff", dest="t_eff", type=float, help="effective temperature in kelvin")
    sub.add_argument("--f-a", dest="f_a", type=float, help="source frequency in Hz")
    sub.add_argument("--amplitude", type=float, help="source amplitude in volts")
    sub.add_argument("--bits", type=int, help="secure bits per session")


def _add_attack_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--mode", choices=[m.value for m in AttackMode], help="attack protocol")
    sub.add_argument("--kappa", type=float, help="threshold scale")
    sub.add_argument("--ensemble-size", dest="ensemble_size", type=int, help="rehearsal periods")
    sub.add_argument("--band-lo", dest="band_lo", type=float, help="band lower edge in Hz")
    sub.add_argument("--band-hi", dest="band_hi", type=float, help="band upper edge in Hz")


def _add_grid_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--u-eff-min", dest="u_eff_min", type=float, help="grid lower edge in volts")
    sub.add_argument("--u-eff-max", dest="u_eff_max", type=float, help="grid upper edge in volts")
    sub.add_argument("--u-eff-points", dest="u_eff_points", type=int, help="grid size")
    sub.add_argument(
        "--f-a-list",
        dest="f_a_list",
        type=_parse_float_list,
        metavar="HZ,HZ,...",
        help="source frequencies to sweep",
    )
    sub.add_argument("--bits", type=int, help="secure bits per cell")
    sub.add_argument("--amplitude", type=float, help="source amplitude in volts")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kljnsim",
        description="Resistor-switching key exchange simulator and attack toolkit",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    sim = commands.add_parser("simulate", help="run one session and dump all samples")
    _add_common_flags(sim)
    _add_point_flags(sim)

    atk = commands.add_parser("attack", help="attack one operating point")
    _add_common_flags(atk)
    _add_point_flags(atk)
    _add_attack_flags(atk)

    swp = commands.add_parser("sweep", help="attack across a noise-level grid")
    _add_common_flags(swp)
    _add_attack_flags(swp)
    _add_grid_flags(swp)

    dfd = commands.add_parser("defend", help="sweep with a countermeasure enabled")
    _add_common_flags(dfd)
    _add_attack_flags(dfd)
    _add_grid_flags(dfd)
    dfd.add_argument(
        "--defense",
        choices=[k.value for k in DefenseKind if k is not DefenseKind.NONE],
        help="countermeasure kind (default notch)",
    )
    dfd.add_argument("--notch-center", dest="notch_center", type=float, help="notch center in Hz")
    dfd.add_argument(
        "--notch-halfwidth", dest="notch_halfwidth", type=float, help="notch halfwidth in Hz"
    )
    dfd.add_argument(
        "--target-t-eff", dest="target_t_eff", type=float, help="raised temperature in kelvin"
    )
    return parser


def _manifest_from_args(args: argparse.Namespace) -> RunManifest:
    overrides: dict[tuple[str, str], Any] = {}
    for dest, target in _FLAG_MAP.items():
        value = getattr(args, dest, None)
        if value is not None:
            overrides[target] = value
    return RunManifest(
        command=args.command,
        config_path=args.config,
        preset=args.preset,
        seed=args.seed,
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
