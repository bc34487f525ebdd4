"""Tests for config resolution and the command-line entry point."""

import argparse
import re
import subprocess
import sys
from pathlib import Path

import pytest

import kljnsim.cli as cli
from kljnsim import ConfigurationError, ResistorPair, SpectralAttack, ThresholdAttack, teff_of_ueff
from kljnsim.cli import _KEYS, PRESETS, _build_parser, main, resolve
from kljnsim.experiment import u_eff_of_teff
from kljnsim.noise import johnson_rms, mix_seed


def run_main(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def resolved(command, path=None, preset=None):
    return resolve(command, None if path is None else str(path), preset)


class TestPresets:
    def test_low_frequency_preset(self):
        setup = resolved("attack", preset="fig5")
        config = setup.config
        assert config.resistors.r_low == 1.0e3
        assert config.resistors.r_high == 1.0e4
        assert config.t_eff == 9.0e15
        assert config.f_b == 1.0e5
        assert config.f_c == 1.0e3
        assert config.source.amplitude == 1.0
        assert config.source.frequency == 318.30
        assert config.n_secure_bits == 1000
        assert config.seed == 42
        assert isinstance(setup.attack, ThresholdAttack)
        assert setup.attack.kappa == 0.5
        setup = resolved("sweep", preset="fig5")
        assert len(setup.u_eff_grid) == 25
        assert setup.u_eff_grid[0] == pytest.approx(0.01)
        assert setup.u_eff_grid[-1] == pytest.approx(100.0)
        assert setup.f_a_list == [318.30, 101.32, 32.25]

    def test_spectral_preset(self):
        setup = resolved("sweep", preset="fig6")
        assert setup.config.f_c == 500.0
        assert setup.config.source.frequency == 2000.0
        assert setup.config.samples_per_bit == 400
        assert isinstance(setup.attack, SpectralAttack)
        assert setup.f_a_list == [2000.0, 16000.0, 32000.0]

    def test_preset_tables_stay_consistent(self):
        for name, preset in PRESETS.items():
            assert set(preset) == {"channel", "attack", "defense", "grid"}, name

    def test_unknown_preset_rejected(self, capsys):
        code, _, err = run_main(["sweep", "--preset", "fig7"], capsys)
        assert code == 1
        assert "fig7" in err


class TestConfigFile:
    def test_file_values_override_preset(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text(
            "[channel]\nf_c_hz = 2000\nn_secure_bits = 7\n\n[attack]\nkappa = 0.25\n"
        )
        setup = resolved("sweep", path, preset="fig5")
        assert setup.config.f_c == 2000.0
        assert setup.config.n_secure_bits == 7
        assert setup.attack.kappa == 0.25
        # Untouched preset values survive the merge.
        assert setup.config.f_b == 1.0e5

    def test_standalone_file(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text(
            "[channel]\n"
            "r_low_ohm = 1e3\nr_high_ohm = 1e4\nt_eff_k = 9e15\n"
            "f_b_hz = 1e5\nf_c_hz = 1e3\namplitude_v = 1.0\nf_a_hz = 318.30\n"
            "n_secure_bits = 12\nseed = 7\n"
            "[attack]\nmode = lowfreq\n"
        )
        setup = resolved("sweep", path)
        assert setup.config.seed == 7
        assert setup.config.n_secure_bits == 12

    def test_u_eff_v_converts_to_temperature(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text(
            "[channel]\n"
            "r_low_ohm = 1e3\nr_high_ohm = 1e4\nu_eff_v = 6.7219696788691605\n"
            "f_b_hz = 1e5\nf_c_hz = 1e3\namplitude_v = 1.0\nf_a_hz = 318.30\n"
            "n_secure_bits = 12\nseed = 7\n"
            "[attack]\nmode = lowfreq\n"
        )
        setup = resolved("attack", path)
        assert setup.config.t_eff == pytest.approx(9.0e15, rel=1e-9)

    def test_unknown_key_is_named(self, tmp_path, capsys):
        path = tmp_path / "run.ini"
        path.write_text("[attack]\nbogus = 1\n")
        code, _, err = run_main(["sweep", "--preset", "fig5", "--config", str(path)], capsys)
        assert code == 1
        assert "attack.bogus" in err

    def test_unknown_section_is_named(self, tmp_path, capsys):
        path = tmp_path / "run.ini"
        path.write_text("[mystery]\nx = 1\n")
        code, _, err = run_main(["sweep", "--preset", "fig5", "--config", str(path)], capsys)
        assert code == 1
        assert "mystery" in err

    def test_band_ordering_error_names_keys(self, tmp_path, capsys):
        path = tmp_path / "run.ini"
        path.write_text("[channel]\nf_b_hz = 400\n")
        code, _, err = run_main(["sweep", "--preset", "fig5", "--config", str(path)], capsys)
        assert code == 1
        assert "channel.f_b_hz" in err and "channel.f_c_hz" in err

    def test_missing_required_keys_reported(self, tmp_path, capsys):
        path = tmp_path / "run.ini"
        path.write_text("[channel]\nr_low_ohm = 1e3\n")
        code, _, err = run_main(["sweep", "--config", str(path)], capsys)
        assert code == 1
        assert "channel." in err

    def test_missing_file_reported(self, capsys):
        code, _, err = run_main(["sweep", "--config", "/nonexistent.ini"], capsys)
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize(
        "body,flags,message",
        [
            ("f_b_hz = 1e5\n", [], "malformed config file"),
            ("[channel]\nf_b_hz = abc\n", [], "bad value for channel.f_b_hz"),
            ("[grid]\nf_a_list_hz = ,\n", [], "bad value for grid.f_a_list_hz"),
            ("[channel]\nn_secure_bits = 2.5\n", [], "bad value for channel.n_secure_bits"),
            # u_eff_v converts to a temperature before the bandwidth meets f_c.
            ("[channel]\nf_b_hz = 0\n", ["--u-eff", "1"], "channel.f_b_hz"),
        ],
        ids=["no-section", "float", "list", "int", "u-eff-at-zero-bandwidth"],
    )
    def test_bad_file_reported_before_echo(self, body, flags, message, tmp_path, capsys):
        path = tmp_path / "run.ini"
        path.write_text(body)
        argv = ["attack", "--preset", "fig5", "--bits", "5", "--config", str(path)] + flags
        code, out, err = run_main(argv, capsys)
        assert code == 1
        assert out == ""
        assert message in err
        assert "# " not in err


# A channel section without the point a sweep sets cell by cell.
CHANNEL_BASE = (
    "[channel]\nr_low_ohm = 1e3\nr_high_ohm = 1e4\nf_b_hz = 1e5\nf_c_hz = 1e3\n"
    "amplitude_v = 1.0\nn_secure_bits = 20\n"
)


class TestCommandSections:
    """Each command checks, builds and echoes only the sections it reads."""

    def test_simulate_needs_only_the_channel(self, tmp_path, capsys):
        path = tmp_path / "run.ini"
        path.write_text(CHANNEL_BASE + "t_eff_k = 9e15\nf_a_hz = 318.3\n")
        code, out, err = run_main(["simulate", "--config", str(path)], capsys)
        assert code == 0
        assert out.startswith("period_index,")
        assert set(re.findall(r"^# (\w+)\.\w+ = ", err, re.MULTILINE)) == {"channel", "derived"}

    def test_simulate_ignores_the_grid_section(self, tmp_path, capsys):
        path = tmp_path / "run.ini"
        path.write_text("[grid]\nu_eff_points = 0\n")
        argv = ["simulate", "--preset", "fig5", "--bits", "2", "--config", str(path)]
        code, _, err = run_main(argv, capsys)
        assert code == 0
        assert "grid." not in err

    @pytest.mark.parametrize(
        "argv", [["attack", "--bits", "10"], ["sweep", "--bits", "10", "--u-eff-points", "1"]]
    )
    def test_undefended_commands_ignore_the_defense_section(self, argv, tmp_path, capsys):
        path = tmp_path / "run.ini"
        path.write_text("[defense]\nkind = none\nnotch_halfwidth_hz = 5\n")
        code, out, err = run_main(argv + ["--preset", "fig5", "--config", str(path)], capsys)
        assert code == 0
        assert out.startswith("mode,")
        assert "defense." not in err

    def test_sweep_needs_no_channel_temperature_or_frequency(self, tmp_path, capsys):
        path = tmp_path / "run.ini"
        path.write_text(
            CHANNEL_BASE + "[attack]\nmode = lowfreq\n"
            "[grid]\nu_eff_points = 2\nf_a_list_hz = 318.3, 101.32\n"
        )
        code, out, _ = run_main(["sweep", "--config", str(path)], capsys)
        assert code == 0
        _, from_preset, _ = run_main(
            ["sweep", "--preset", "fig5", "--bits", "20", "--u-eff-points", "2",
             "--f-a-list", "318.3,101.32"],
            capsys,
        )
        assert len(out.splitlines()) == 5
        assert out == from_preset

    def test_sweep_without_any_frequency_names_both_keys(self, tmp_path, capsys):
        path = tmp_path / "run.ini"
        path.write_text(CHANNEL_BASE + "[attack]\nmode = lowfreq\n")
        code, out, err = run_main(["sweep", "--config", str(path)], capsys)
        assert code == 1
        assert out == ""
        assert "grid.f_a_list_hz" in err and "channel.f_a_hz" in err
        assert "t_eff" not in err

    def test_sweep_base_is_its_first_cell(self):
        setup = resolved("sweep", preset="fig5")
        config = setup.config
        assert config.source.frequency == setup.f_a_list[0]
        assert config.t_eff == teff_of_ueff(setup.u_eff_grid[0], config.resistors, config.f_b)
        assert setup.defense is None

    def test_echo_shows_only_the_attack_keys_the_mode_reads(self, capsys):
        _, _, lowfreq = run_main(["attack", "--preset", "fig5", "--bits", "5"], capsys)
        _, _, highfreq = run_main(["attack", "--preset", "fig6", "--bits", "5"], capsys)
        assert "# attack.kappa = 0.5\n" in lowfreq
        assert "attack.ensemble_size" not in lowfreq
        assert "attack.kappa" not in highfreq
        assert "# attack.ensemble_size = 1000\n" in highfreq

    def test_unread_sections_build_nothing(self):
        setup = resolved("simulate", preset="fig6")
        assert setup.attack is None and setup.defense is None and setup.u_eff_grid == []
        assert set(setup.sections) == {"channel"}

    @pytest.mark.parametrize("command", ["simulate", "attack", "sweep", "defend"])
    def test_readme_config_example_resolves(self, command, tmp_path):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        (example,) = re.findall(r"^```ini\n(.*?)^```$", readme, re.MULTILINE | re.DOTALL)
        path = tmp_path / "run.ini"
        path.write_text(example)
        setup = resolved(command, path)
        assert setup.config.source.frequency == 318.30
        assert setup.config.n_secure_bits == 1000


class TestSimulateCommand:
    def test_stdout_dump(self, capsys):
        code, out, err = run_main(
            ["simulate", "--preset", "fig5", "--bits", "2", "--seed", "5"], capsys
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "period_index,situation,sample_index,u_wire,u_ac,u_noise"
        assert len(lines) > 400  # at least two 200-sample periods plus header
        assert "finished in" in err

    def test_deterministic_files(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for target in (a, b):
            code, _, _ = run_main(
                ["simulate", "--preset", "fig5", "--bits", "3", "--out", str(target)], capsys
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_refuses_overwrite_without_force(self, tmp_path, capsys):
        target = tmp_path / "a.csv"
        target.write_text("precious\n")
        code, _, err = run_main(
            ["simulate", "--preset", "fig5", "--bits", "2", "--out", str(target)], capsys
        )
        assert code == 1
        assert target.read_text() == "precious\n"
        code, _, _ = run_main(
            ["simulate", "--preset", "fig5", "--bits", "2", "--out", str(target), "--force"],
            capsys,
        )
        assert code == 0
        assert target.read_text().startswith("period_index")


class TestFailedRunOutput:
    ARGV = ["attack", "--preset", "fig6", "--bits", "10"]

    @pytest.fixture
    def failing_run(self, monkeypatch, tmp_path):
        """Make the run fail inside ``run_point``, once its output file is open."""

        def run_point(*args):
            assert any(path.name.endswith(".partial") for path in tmp_path.iterdir())
            raise ConfigurationError("the run failed")

        monkeypatch.setattr(cli, "run_point", run_point)

    def test_leaves_no_file_behind(self, failing_run, monkeypatch, tmp_path, capsys):
        target = tmp_path / "x.csv"
        code, _, err = run_main(self.ARGV + ["--out", str(target)], capsys)
        assert code == 1
        assert err.splitlines()[-1] == "error: the run failed"
        assert list(tmp_path.iterdir()) == []
        monkeypatch.undo()
        code, _, _ = run_main(self.ARGV + ["--out", str(target)], capsys)
        assert code == 0
        assert target.read_text().startswith("mode,")
        assert list(tmp_path.iterdir()) == [target]

    def test_forced_failure_keeps_existing_file(self, failing_run, tmp_path, capsys):
        target = tmp_path / "x.csv"
        target.write_text("precious\n")
        code, _, err = run_main(self.ARGV + ["--out", str(target), "--force"], capsys)
        assert code == 1
        assert err.splitlines()[-1] == "error: the run failed"
        assert target.read_text() == "precious\n"
        assert list(tmp_path.iterdir()) == [target]


class TestAttackCommand:
    def test_single_row(self, capsys):
        code, out, err = run_main(
            [
                "attack",
                "--preset",
                "fig5",
                "--u-eff",
                "0.01",
                "--bits",
                "150",
            ],
            capsys,
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("mode,f_a_hz")
        assert len(lines) == 2
        row = lines[1].split(",")
        assert row[0] == "lowfreq"
        assert int(row[6]) == 150
        assert float(row[9]) >= 0.95

    @pytest.mark.parametrize("preset", ["fig5", "fig6"])
    def test_null_run_guesses_nothing(self, preset, capsys):
        # No noise and no source: every period sits on its attack's decision boundary.
        argv = ["attack", "--preset", preset, "--u-eff", "0", "--amplitude", "0", "--bits", "20"]
        argv += ["--ensemble-size", "100"] if preset == "fig6" else []
        code, out, _ = run_main(argv, capsys)
        assert code == 0
        assert out.splitlines()[1].split(",")[6:] == ["20", "0", "0", "0.5"]

    def test_echo_lands_on_stderr(self, capsys):
        code, out, err = run_main(
            ["attack", "--preset", "fig5", "--u-eff", "1.0", "--bits", "10"], capsys
        )
        assert code == 0
        assert "# channel.f_b_hz" in err
        assert "#" not in out.splitlines()[0]


class TestRecords:
    @pytest.mark.parametrize(
        "argv",
        [
            ["attack", "--preset", "fig5"],
            ["attack", "--preset", "fig6", "--u-eff", "0.3", "--ensemble-size", "100"],
            ["sweep", "--preset", "fig5", "--u-eff-points", "3"],
            ["defend", "--preset", "fig5", "--u-eff-points", "3"],
            ["defend", "--preset", "fig5", "--u-eff-points", "3",
             "--defense", "raise_temperature", "--target-t-eff", "1e14"],
        ],
        ids=["attack-lowfreq", "attack-highfreq", "sweep", "defend-notch",
             "defend-raise-temperature"],
    )
    def test_every_record_states_the_rms_it_ran_at(self, argv, monkeypatch, capsys):
        records = []
        write = cli.write_sweep_csv

        def capture(outcomes, handle):
            records.extend(outcomes)
            write(records, handle)

        monkeypatch.setattr(cli, "write_sweep_csv", capture)
        code, out, _ = run_main(argv + ["--bits", "20"], capsys)
        assert code == 0
        rows = out.splitlines()[1:]
        assert len(rows) == len(records) > 0
        for outcome, row in zip(records, rows):
            config = outcome.config
            r_low, r_high = config.resistors.r_low, config.resistors.r_high
            parallel = r_low * r_high / (r_low + r_high)
            assert outcome.u_eff == johnson_rms(parallel, config.t_eff, config.f_b)
            assert row.split(",")[4:6] == [f"{outcome.u_eff:.10g}", f"{config.t_eff:.10g}"]


class TestSweepCommand:
    def test_tiny_grid_row_count(self, capsys):
        code, out, _ = run_main(
            [
                "sweep",
                "--preset",
                "fig5",
                "--bits",
                "40",
                "--u-eff-points",
                "3",
                "--f-a-list",
                "318.30",
            ],
            capsys,
        )
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 4
        u_values = [float(line.split(",")[4]) for line in lines[1:]]
        assert u_values == sorted(u_values)

    def test_threads_do_not_change_output(self, capsys):
        argv = [
            "sweep",
            "--preset",
            "fig5",
            "--bits",
            "30",
            "--u-eff-points",
            "3",
            "--f-a-list",
            "318.30,101.32",
        ]
        _, serial, _ = run_main(argv + ["--threads", "1"], capsys)
        _, parallel, _ = run_main(argv + ["--threads", "3"], capsys)
        assert serial == parallel

    @pytest.mark.parametrize("preset", ["fig5", "fig6"])
    def test_rows_equal_attack_at_column_seed(self, preset, capsys):
        frequencies = PRESETS[preset]["grid"]["f_a_list_hz"][:2]
        common = ["--preset", preset, "--bits", "60"]
        common += ["--ensemble-size", "100"] if preset == "fig6" else []
        code, out, _ = run_main(
            ["sweep", *common, "--seed", "5", "--u-eff-points", "3",
             "--f-a-list", ",".join(map(str, frequencies))],
            capsys,
        )
        assert code == 0
        expected = []
        for i, f_a in enumerate(frequencies):
            for u_eff in ("0.01", "1", "100"):
                code, row, _ = run_main(
                    ["attack", *common, "--seed", str(mix_seed(5, i)), "--u-eff", u_eff,
                     "--f-a", str(f_a)],
                    capsys,
                )
                assert code == 0
                expected.append(row.splitlines()[1])
        assert out.splitlines()[1:] == expected

    def test_seed_flag_changes_rows(self, capsys):
        argv = [
            "sweep",
            "--preset",
            "fig5",
            "--bits",
            "30",
            "--u-eff-points",
            "2",
            "--f-a-list",
            "318.30",
        ]
        _, one, _ = run_main(argv + ["--seed", "1"], capsys)
        _, two, _ = run_main(argv + ["--seed", "2"], capsys)
        assert one != two


class TestDefendCommand:
    def test_defaults_to_notch_on_source(self, capsys):
        code, out, err = run_main(
            [
                "defend",
                "--preset",
                "fig5",
                "--bits",
                "100",
                "--u-eff-points",
                "1",
                "--u-eff-min",
                "0.1",
                "--u-eff-max",
                "0.1",
                "--f-a-list",
                "318.30",
            ],
            capsys,
        )
        assert code == 0
        assert "# defense.kind = notch" in err
        p = float(out.splitlines()[1].split(",")[9])
        assert 0.3 <= p <= 0.7

    def test_raise_temperature_path(self, capsys):
        code, out, err = run_main(
            [
                "defend",
                "--preset",
                "fig5",
                "--defense",
                "raise_temperature",
                "--target-t-eff",
                "2e18",
                "--bits",
                "60",
                "--u-eff-points",
                "1",
                "--u-eff-min",
                "0.01",
                "--u-eff-max",
                "0.01",
                "--f-a-list",
                "318.30",
            ],
            capsys,
        )
        assert code == 0
        p = float(out.splitlines()[1].split(",")[9])
        # The target is ~100 V rms, far into the chance-level regime.
        assert 0.3 <= p <= 0.7

    def test_raise_temperature_rows_state_what_ran(self, capsys):
        argv = [
            "--preset",
            "fig5",
            "--u-eff-points",
            "2",
            "--f-a-list",
            "318.3",
            "--bits",
            "200",
        ]
        code, out, err = run_main(
            ["defend", "--defense", "raise_temperature", "--target-t-eff", "1e18"] + argv,
            capsys,
        )
        assert code == 0
        _, undefended, _ = run_main(["sweep"] + argv, capsys)
        cold, hot = [line.split(",") for line in out.splitlines()[1:]]
        # The 0.01 V cell is raised to the target and says so ...
        assert float(cold[5]) == 1e18
        u_target = u_eff_of_teff(1e18, ResistorPair(1e3, 1e4), 1e5)
        assert float(cold[4]) == pytest.approx(u_target, rel=1e-9)
        # ... while the 100 V cell, already hotter, runs exactly as undefended.
        assert ",".join(hot) == undefended.splitlines()[2]
        assert float(hot[5]) > 1e18
        # The grid overrides the channel temperature, so the echo omits it.
        assert "# channel.t_eff_k" not in err
        assert "derived.u_eff_vrms" not in err

    def test_sweep_ignores_defense_section(self, tmp_path, capsys):
        path = tmp_path / "run.ini"
        path.write_text("[defense]\nkind = notch\nnotch_halfwidth_hz = 1000\n")
        argv = [
            "sweep",
            "--preset",
            "fig5",
            "--config",
            str(path),
            "--bits",
            "40",
            "--u-eff-points",
            "1",
            "--u-eff-min",
            "0.01",
            "--u-eff-max",
            "0.01",
            "--f-a-list",
            "318.30",
        ]
        code, out, _ = run_main(argv, capsys)
        assert code == 0
        # An undefended easy point stays easy; the notch would drag it to 0.5.
        assert float(out.splitlines()[1].split(",")[9]) >= 0.9


class TestBoundaryValidation:
    @pytest.mark.parametrize(
        "flags,key",
        [
            (["--t-eff", "inf"], "t_eff"),
            (["--t-eff", "nan"], "t_eff"),
            (["--u-eff", "nan"], "u_eff"),
            (["--amplitude", "inf"], "amplitude"),
            (["--f-a", "nan"], "frequency"),
        ],
    )
    def test_non_finite_point_rejected(self, flags, key, capsys):
        code, out, err = run_main(["attack", "--preset", "fig5", "--bits", "5"] + flags, capsys)
        assert code == 1
        assert out == ""
        assert key in err and "finite" in err

    def test_source_frequency_above_f_b_rejected(self, capsys):
        code, out, err = run_main(
            ["attack", "--preset", "fig5", "--f-a", "2e5", "--bits", "10"], capsys
        )
        assert code == 1
        assert out == ""
        assert "frequency" in err and "f_b" in err

    def test_sweep_frequency_above_f_b_fails_before_any_row(self, capsys):
        code, out, err = run_main(
            ["sweep", "--preset", "fig5", "--f-a-list", "318.3,2e5", "--u-eff-points", "1",
             "--bits", "10"],
            capsys,
        )
        assert code == 1
        assert out == ""
        assert "frequency" in err

    def test_grid_frequency_above_f_b_names_the_grid_key(self, capsys):
        code, out, err = run_main(
            ["sweep", "--preset", "fig5", "--f-a-list", "318.3,2e5", "--u-eff-points", "1",
             "--bits", "10"],
            capsys,
        )
        assert code == 1
        assert out == ""
        assert "grid.f_a_list_hz" in err and "200000" in err and "frequency" in err
        assert "# " not in err  # rejected before the echo

    def test_default_notch_at_nyquist_rejected_before_echo(self, capsys):
        argv = ["defend", "--preset", "fig6", "--f-a-list", "1e5", "--u-eff-points", "1",
                "--bits", "10"]
        code, out, err = run_main(argv, capsys)
        assert code == 1
        assert out == ""
        assert "grid.f_a_list_hz" in err and "defaults to the source frequency" in err
        assert "# " not in err
        # The same grid runs once the center is given inside the band.
        code, out, _ = run_main(argv + ["--notch-center", "3000"], capsys)
        assert code == 0
        assert len(out.splitlines()) == 2

    def test_explicit_notch_center_above_f_b_names_key_before_echo(self, capsys):
        argv = ["defend", "--preset", "fig6", "--bits", "50", "--u-eff-points", "1",
                "--notch-center", "1e6"]
        code, out, err = run_main(argv, capsys)
        assert code == 1
        assert out == ""
        assert "defense.notch_center_hz" in err
        assert "# command:" not in err

    @pytest.mark.parametrize(
        "argv,key",
        [
            (["sweep", "--preset", "fig5", "--u-eff-max", "inf", "--u-eff-points", "2",
              "--bits", "10"], "grid.u_eff_max_v"),
            (["defend", "--preset", "fig5", "--defense", "raise_temperature",
              "--target-t-eff", "inf", "--u-eff-points", "1", "--bits", "10"],
             "defense.target_t_eff_k"),
            (["defend", "--preset", "fig5", "--notch-halfwidth", "inf", "--u-eff-points", "1",
              "--bits", "10"], "defense.notch_halfwidth_hz"),
            (["attack", "--preset", "fig6", "--band-hi", "inf"], "attack.band_hi_hz"),
        ],
    )
    def test_non_finite_value_named_before_echo(self, argv, key, capsys):
        code, out, err = run_main(argv, capsys)
        assert code == 1
        assert out == ""
        assert key in err and "finite" in err
        assert "# " not in err

    @pytest.mark.parametrize(
        "argv,keys",
        [
            (["attack", "--preset", "fig5", "--f-a", "2e5"], ["channel.f_a_hz", "channel.f_b_hz"]),
            (["attack", "--preset", "fig5", "--bits", "0"], ["channel.n_secure_bits"]),
            (["attack", "--preset", "fig5", "--kappa", "-1"], ["attack.kappa"]),
            (["defend", "--preset", "fig5", "--notch-halfwidth", "-1"],
             ["defense.notch_halfwidth_hz"]),
            # A grid edge or a point above the 1e100 V range.
            (["sweep", "--preset", "fig5", "--u-eff-min", "1", "--u-eff-max", "1e160",
              "--u-eff-points", "2", "--bits", "5"], ["grid.u_eff_max_v"]),
            (["sweep", "--preset", "fig5", "--u-eff-min", "1e160", "--u-eff-max", "1e161",
              "--u-eff-points", "2", "--bits", "5"], ["grid.u_eff_min_v"]),
            (["attack", "--preset", "fig5", "--u-eff", "1e160"], ["channel.u_eff_v"]),
            (["attack", "--preset", "fig5", "--f-a", "-5", "--bits", "5"], ["channel.f_a_hz"]),
            (["attack", "--preset", "fig5", "--amplitude", "-1"], ["channel.amplitude_v"]),
            (["attack", "--preset", "fig5", "--seed", str(2**64)], ["channel.seed"]),
            (["attack", "--preset", "fig6", "--band-lo", "1000"],
             ["attack.band_lo_hz", "attack.band_hi_hz"]),
            (["sweep", "--preset", "fig5", "--u-eff-points", "0"], ["grid.u_eff_points"]),
            (["sweep", "--preset", "fig5", "--u-eff-min", "2", "--u-eff-max", "1"],
             ["grid.u_eff_min_v", "grid.u_eff_max_v"]),
            (["sweep", "--preset", "fig5", "--u-eff-min", "1", "--u-eff-max", "1"],
             ["grid.u_eff_points"]),  # 25 points between coinciding edges
            (["sweep", "--preset", "fig5", "--threads", "0"], ["--threads"]),
        ] + [
            ([command, "--preset", "fig6", "--band-lo", lo, "--band-hi", hi, "--bits", "10"],
             keys)
            for command in ("attack", "sweep")
            for lo, hi, keys in [
                ("10", "5", ["attack.band_lo_hz", "attack.band_hi_hz"]),
                ("10", "2e5", ["attack.band_hi_hz"]),
                ("100", "200", ["attack.band_lo_hz", "attack.band_hi_hz"]),  # between bins
            ]
        ] + [
            # Grids numpy refuses to allocate, as MemoryError and as ValueError.
            (["sweep", "--preset", "fig5", "--u-eff-points", points, "--bits", "5"],
             ["grid.u_eff_points"])
            for points in (str(10**18), str(10**20))
        ] + [
            # Every voltage scale is at most channel.SCALE_LIMIT, 1e100 V, or a
            # run could overflow float64; the key that sets it is named.
            (["attack", "--preset", "fig6", "--amplitude", "1e160", "--bits", "50",
              "--u-eff", "1"], ["channel.amplitude_v"]),
            (["defend", "--preset", "fig5", "--amplitude", "1.7e308", "--u-eff-points", "1",
              "--bits", "10"], ["channel.amplitude_v"]),
            (["attack", "--preset", "fig6", "--amplitude", "1e154", "--bits", "50",
              "--u-eff", "1"], ["channel.amplitude_v"]),
            (["attack", "--preset", "fig5", "--bits", "200", "--u-eff", "0.01",
              "--amplitude", "1e308", "--kappa", "10"], ["channel.amplitude_v"]),
            (["attack", "--preset", "fig5", "--t-eff", "1e300"], ["channel.t_eff_k"]),
            (["attack", "--preset", "fig5", "--u-eff", "1e120"], ["channel.u_eff_v"]),
            (["sweep", "--preset", "fig6", "--u-eff-max", "1e120"], ["grid.u_eff_max_v"]),
            (["attack", "--preset", "fig5", "--kappa", "1e101"], ["attack.kappa"]),
            (["defend", "--preset", "fig5", "--defense", "raise_temperature",
              "--target-t-eff", "1e300"], ["defense.target_t_eff_k"]),
            # A resistance above 1e100 ohm could overflow the loop algebra.
            # The text after --config is the config file's.
            (["simulate", "--preset", "fig5", "--u-eff", "1e100", "--bits", "3", "--seed", "1",
              "--config", "[channel]\nr_low_ohm = 1e-10\nr_high_ohm = 1e300\n"],
             ["channel.r_high_ohm"]),
            (["attack", "--preset", "fig5",
              "--config", "[channel]\nr_low_ohm = 1e200\nr_high_ohm = 1e300\n"],
             ["channel.r_high_ohm"]),
            (["attack", "--preset", "fig5", "--u-eff", "1",
              "--config", "[channel]\nr_low_ohm = 1e200\nr_high_ohm = 1e300\n"],
             ["channel.r_high_ohm"]),
            # The HH wire noise rms is 2.35 times the secure u_eff on the presets,
            # and above 1e100 V here; the key that set the temperature is named.
            (["attack", "--preset", "fig5", "--u-eff", "5e99"], ["channel.u_eff_v"]),
            (["sweep", "--preset", "fig5", "--u-eff-max", "5e99"], ["grid.u_eff_max_v"]),
            # Its HH rms overflows to inf, which pytest fails on if numpy warns of it.
            (["attack", "--preset", "fig5", "--t-eff", "1e300",
              "--config", "[channel]\nr_low_ohm = 1\nr_high_ohm = 1e100\n"],
             ["channel.t_eff_k"]),
            # Below 1e-100 ohm the secure loop resistance can underflow to 0,
            # which teff_of_ueff divided by and simulate's noise was scaled by.
            (["attack", "--preset", "fig5", "--u-eff", "1", "--bits", "5",
              "--config", "[channel]\nr_low_ohm = 1e-170\nr_high_ohm = 1e-160\n"],
             ["channel.r_low_ohm"]),
            (["simulate", "--preset", "fig5", "--u-eff", "1", "--bits", "5",
              "--config", "[channel]\nr_low_ohm = 1e-170\nr_high_ohm = 1e-160\n"],
             ["channel.r_low_ohm"]),
            # Resistances in range, but 4 k_B R f_b underflows to 0 ...
            (["attack", "--preset", "fig5", "--f-a", "1e-300", "--u-eff", "1",
              "--config", "[channel]\nr_low_ohm = 1e-100\nr_high_ohm = 1e-99\n"
              "f_c_hz = 1e-300\nf_b_hz = 1e-299\n"], ["channel.f_b_hz"]),
            # ... or is so small that the temperature overflows.
            (["attack", "--preset", "fig5", "--f-a", "1e-300", "--u-eff", "1",
              "--config", "[channel]\nf_c_hz = 1e-300\nf_b_hz = 1e-299\n"],
             ["channel.u_eff_v"]),
        ] + [
            # The quietest loop's noise power per kelvin, 4 k_B f_b r_low / 2, underflows
            # to 0, so any temperature would run noise-free; the channel keys are named,
            # not the temperature nor the grid.
            ([command, "--preset", "fig5", "--bits", "5", "--config",
              "[channel]\nr_low_ohm = 1e-100\nr_high_ohm = 1e-99\n"
              "f_c_hz = 1e-300\nf_b_hz = 1e-299\n"] + flags,
             ["channel.r_low_ohm", "channel.f_b_hz"])
            for command, flags in [
                ("attack", ["--t-eff", "1e10", "--f-a", "1e-300"]),
                ("sweep", ["--f-a-list", "1e-300"]),
            ]
        ],
    )
    def test_out_of_range_value_names_key(self, argv, keys, tmp_path, capsys):
        if "--config" in argv:
            at = argv.index("--config") + 1
            path = tmp_path / "run.ini"
            path.write_text(argv[at])
            argv = argv[:at] + [str(path)] + argv[at + 1:]
        code, out, err = run_main(argv, capsys)
        assert code == 1
        assert out == ""
        assert all(key in err for key in keys)
        assert "# " not in err
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    @pytest.mark.parametrize(
        "flags,keys",
        [
            (["--preset", "fig6", "--kappa", "3"], ["attack.kappa"]),
            (["--preset", "fig5", "--ensemble-size", "500"], ["attack.ensemble_size"]),
            (["--preset", "fig5", "--band-lo", "500", "--band-hi", "4500"],
             ["attack.band_hi_hz", "attack.band_lo_hz"]),
        ],
        ids=["kappa-under-highfreq", "ensemble-under-lowfreq", "band-under-lowfreq"],
    )
    def test_key_the_mode_does_not_read_named_before_echo(self, flags, keys, capsys):
        code, out, err = run_main(["attack", "--bits", "5"] + flags, capsys)
        assert code == 1
        assert out == ""
        assert re.findall(r"\b(?:channel|attack|defense|grid)\.\w+", err) == keys
        assert "not read by the" in err
        assert "# " not in err

    @pytest.mark.parametrize("size", [str(10**17), str(10**20)])
    def test_unallocatable_ensemble_named_in_one_error_line(self, size, capsys):
        # The rehearsal allocates after the echo; numpy refuses either size at once.
        argv = ["attack", "--preset", "fig6", "--bits", "5", "--ensemble-size", size]
        code, out, err = run_main(argv, capsys)
        assert code == 1
        assert out == ""
        [line] = [line for line in err.splitlines() if not line.startswith("# ")]
        assert line.startswith("error: attack.ensemble_size: ")

    @pytest.mark.parametrize(
        "flags,ini,key",
        [
            (["--defense", "raise_temperature"], "", "defense.target_t_eff_k"),
            ([], "[defense]\nkind = none\n", "defense.kind"),  # sweep is the undefended run
            (["--defense", "raise_temperature", "--target-t-eff", "1e17", "--notch-halfwidth", "5"],
             "", "defense.notch_halfwidth_hz"),
            (["--defense", "raise_temperature", "--target-t-eff", "1e17"],
             "[defense]\nnotch_center_hz = 300\n", "defense.notch_center_hz"),
        ],
        ids=["no-target", "kind-none", "halfwidth-flag", "center-in-file"],
    )
    def test_defense_keys_checked_against_the_kind(self, flags, ini, key, tmp_path, capsys):
        path = tmp_path / "run.ini"
        path.write_text(ini)
        argv = ["defend", "--preset", "fig5", "--bits", "5", "--config", str(path)] + flags
        code, out, err = run_main(argv, capsys)
        assert code == 1
        assert out == ""
        assert re.findall(r"\b(?:channel|attack|defense|grid)\.\w+", err) == [key]
        assert "# " not in err

    @pytest.mark.parametrize(
        "flags",
        [
            # 318.3 Hz lies 318.3 Hz from the nearest of bins 1 kHz apart.
            ["--preset", "fig5", "--f-a-list", "318.3", "--bits", "200"],
            # 2.1 kHz lies 100 Hz from the nearest of bins 500 Hz apart.
            ["--preset", "fig6", "--f-a-list", "2100", "--bits", "50", "--ensemble-size", "200"],
            ["--preset", "fig6", "--notch-center", "2100", "--bits", "50"],
        ],
        ids=["lowfreq", "highfreq", "explicit-center"],
    )
    def test_notch_that_holds_no_bin_names_halfwidth_before_echo(self, flags, capsys):
        argv = ["defend", "--notch-halfwidth", "5", "--u-eff-points", "1", "--u-eff-min", "0.01",
                "--u-eff-max", "0.01"] + flags
        code, out, err = run_main(argv, capsys)
        assert code == 1
        assert out == ""
        assert "defense.notch_halfwidth_hz" in err and "no spectrum bin" in err
        assert "# " not in err

    def test_choice_from_a_file_names_key_before_echo(self, tmp_path, capsys):
        path = tmp_path / "run.ini"
        path.write_text("[attack]\nmode = bogus\n")
        argv = ["attack", "--preset", "fig5", "--bits", "5", "--config", str(path)]
        code, out, err = run_main(argv, capsys)
        assert code == 1
        assert out == ""
        assert re.findall(r"\b(?:channel|attack|defense|grid)\.\w+", err) == ["attack.mode"]
        assert "'bogus'" in err
        assert "# " not in err

    def test_zero_source_frequency_names_key_before_echo(self, capsys):
        argv = ["attack", "--preset", "fig6", "--f-a", "0", "--bits", "10"]
        code, out, err = run_main(argv, capsys)
        assert code == 1
        assert out == ""
        assert "channel.f_a_hz" in err
        assert "# " not in err

    def test_overflowing_lowfreq_threshold_prints_only_the_error(self):
        # A subprocess, so numpy's warnings would reach stderr as a user sees
        # them.  kappa times this amplitude overflows float64, so the
        # amplitude is refused before anything is computed from it.
        argv = ["attack", "--preset", "fig5", "--bits", "200", "--u-eff", "0.01",
                "--amplitude", "1e308", "--kappa", "10"]
        result = subprocess.run(
            [sys.executable, "-m", "kljnsim", *argv], capture_output=True, text=True, timeout=120
        )
        assert result.returncode == 1
        assert result.stdout == ""
        assert "RuntimeWarning" not in result.stderr
        errors = [line for line in result.stderr.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and errors[0].startswith("error: channel.amplitude_v: ")

    def test_unknown_command_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown command 'bogus'"):
            resolve("bogus")

    def test_library_error_that_names_no_key_passes_unchanged(self):
        keys = cli._command_keys("attack")
        with pytest.raises(ConfigurationError, match=r"^no key is named here$"):
            with cli._naming(keys, {"channel": {}}, "channel"):
                raise ConfigurationError("no key is named here")

    def test_non_finite_config_file_value_rejected(self, tmp_path, capsys):
        path = tmp_path / "run.ini"
        path.write_text("[channel]\nphase_rad = nan\n")
        code, _, err = run_main(["simulate", "--preset", "fig5", "--config", str(path)], capsys)
        assert code == 1
        assert "phase" in err and "finite" in err


COMMON_FLAGS = {"-h", "--help", "--config", "--preset", "--seed", "--out", "--force"}
ATTACK_FLAGS = {"--mode", "--kappa", "--ensemble-size", "--band-lo", "--band-hi"}
GRID_FLAGS = {"--u-eff-min", "--u-eff-max", "--u-eff-points", "--f-a-list"}


class TestFlags:
    @pytest.mark.parametrize(
        "command,flags",
        [
            ("simulate", {"--u-eff", "--t-eff", "--f-a", "--amplitude", "--bits"}),
            ("attack", {"--u-eff", "--t-eff", "--f-a", "--amplitude", "--bits"} | ATTACK_FLAGS),
            ("sweep", ATTACK_FLAGS | GRID_FLAGS | {"--bits", "--amplitude", "--threads"}),
            (
                "defend",
                ATTACK_FLAGS | GRID_FLAGS | {"--bits", "--amplitude", "--threads"}
                | {"--defense", "--notch-center", "--notch-halfwidth", "--target-t-eff"},
            ),
        ],
    )
    def test_each_command_accepts_the_same_flags(self, command, flags):
        commands = next(
            action for action in _build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        accepted = {
            option for action in commands.choices[command]._actions
            for option in action.option_strings
        }
        assert accepted == COMMON_FLAGS | flags

    @pytest.mark.parametrize("command,threads", [("attack", "8"), ("simulate", "0")])
    def test_only_sweeping_commands_take_threads(self, command, threads, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--preset", "fig5", "--bits", "5", "--threads", threads])
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: --threads {threads}" in capsys.readouterr().err

    def test_defend_flag_cannot_choose_no_defense(self, capsys):
        # The choices are the defense kinds; "no defense" is the sweep command.
        # TestBoundaryValidation covers kind = none in a file, and
        # TestModuleEntryPoint covers --mode warp.
        with pytest.raises(SystemExit) as exit_info:
            main(["defend", "--preset", "fig5", "--defense", "none"])
        assert exit_info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


    def test_readme_names_every_key_and_flag(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        for key in _KEYS:
            # as a line of the example config file, or quoted as code
            assert re.search(rf"^{key.name} = |`{key.name}`", readme, re.MULTILINE), key.name
            if key.flag is not None:
                assert f"`{key.flag}`" in readme, key.flag


class TestModuleEntryPoint:
    def test_python_dash_m_runs(self, tmp_path):
        result = subprocess.run(
            [
                sys.executable,
                "-m",
                "kljnsim",
                "attack",
                "--preset",
                "fig5",
                "--u-eff",
                "1.0",
                "--bits",
                "5",
            ],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0
        assert result.stdout.startswith("mode,")

    def test_sweep_stdout_equals_the_out_file(self, tmp_path):
        # The entry point freezes the collector before it exits; stdout must
        # still reach the reader in full.
        argv = [sys.executable, "-m", "kljnsim", "sweep", "--preset", "fig5",
                "--u-eff-points", "2", "--bits", "20"]
        piped = subprocess.run(argv, capture_output=True, timeout=120)
        target = tmp_path / "out.csv"
        written = subprocess.run([*argv, "--out", str(target)], capture_output=True, timeout=120)
        assert piped.returncode == written.returncode == 0
        assert piped.stdout.startswith(b"mode,") and piped.stdout.count(b"\n") == 7
        assert piped.stdout == target.read_bytes()

    def test_usage_error_exit_code(self):
        result = subprocess.run(
            [sys.executable, "-m", "kljnsim", "attack", "--preset", "fig5", "--mode", "warp"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 2  # argparse usage failure
