"""CLI and configuration layer: exit codes, determinism, strict validation."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cvmdi
from cvmdi.cli import _grid, main
from cvmdi.config import _DEFAULTS, ConfigError, RunConfig, load_config
from cvmdi.protocol import optimal_gain
from conftest import k_cells, reference_cell, within_reference_bound

# two valid values for every key of the config table, as text. A gain is
# valid only under gain_mode = fixed, and fixed needs a gain, so the file that
# sets one of the two also sets the other (CONTEXT).
VALUES = {
    "scenario.v_a": ("20", "25"), "scenario.v_b": ("30", "35"),
    "scenario.l_ac_km": ("3", "4.5"), "scenario.l_bc_km": ("1", "2"),
    "scenario.attenuation_db_per_km": ("0.3", "0.25"),
    "scenario.eps_a": ("0.01", "0.02"), "scenario.eps_b": ("0.03", "0.04"),
    "scenario.beta_r": ("0.9", "0.95"),
    "scenario.eta_d": ("0.9", "0.8"), "scenario.v_el": ("0.01", "0.05"),
    "scenario.gain_mode": ("fixed", "fixed"), "scenario.gain": ("2.5", "0.75"),
    "sweep.l_min_km": ("1", "2"), "sweep.l_max_km": ("5", "8"), "sweep.points": ("3", "4"),
    "sweep.l_bc_values_km": ("2", "0,4"),
    "mc.n": ("2000", "3000"), "mc.seed": ("7", "8"),
    "output.path": ("a.csv", "b.csv"),
}
CONTEXT = {"scenario.gain_mode": "gain = 1.5", "scenario.gain": "gain_mode = fixed"}


def write_config(tmp_path, name: str, text: str) -> str:
    """A config file setting section.key (name) to text, with its CONTEXT."""
    section, key = name.split(".")
    path = tmp_path / "run.cfg"
    path.write_text(f"[{section}]\n{key} = {text}\n{CONTEXT.get(name, '')}\n")
    return str(path)


def assert_reads(cfg, name: str, text: str):
    """cfg holds text at section.key (name), with the type of the key's default."""
    section, key = name.split(".")
    default = _DEFAULTS[section][key]
    typ = float if default is None else type(default)
    value = cfg[section][key]
    assert type(value) is typ and value == typ(text)


class TestConfig:
    def test_values_cover_the_table(self):
        assert set(VALUES) == {f"{sec}.{key}" for sec, keys in _DEFAULTS.items() for key in keys}

    def test_defaults(self):
        cfg = load_config(environ={})
        assert cfg["scenario"]["v_a"] == 40.0
        assert cfg["mc"]["seed"] == 12345
        s = cfg.scenario()
        assert s.channel_a.excess_noise == 0.002

    @pytest.mark.parametrize("name", sorted(VALUES))
    def test_file_and_override_precedence(self, tmp_path, name):
        first, second = VALUES[name]
        path = write_config(tmp_path, name, first)
        assert_reads(load_config(path, environ={}), name, first)
        assert_reads(load_config(path, [f"{name}={second}"], environ={}), name, second)

    @pytest.mark.parametrize("name", sorted(VALUES))
    def test_environment_override(self, tmp_path, name):
        first, second = VALUES[name]
        path = write_config(tmp_path, name, first)
        env = {"CVMDI_" + name.replace(".", "_").upper(): second}
        assert_reads(load_config(path, environ=env), name, second)
        assert_reads(load_config(path, [f"{name}={first}"], environ=env), name, first)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            load_config(overrides=["scenario.bogus=1"], environ={})

    def test_unknown_section_rejected(self, tmp_path):
        f = tmp_path / "run.cfg"
        f.write_text("[nosuch]\nx = 1\n")
        with pytest.raises(ConfigError, match="unknown section"):
            load_config(str(f), environ={})

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError, match="cannot parse"):
            load_config(overrides=["scenario.v_a=abc"], environ={})

    def test_out_of_range_rejected(self):
        with pytest.raises(ConfigError):
            load_config(overrides=["scenario.beta_r=1.5"], environ={})
        with pytest.raises(ConfigError):
            load_config(overrides=["sweep.points=0"], environ={})

    def test_missing_file_rejected(self):
        with pytest.raises(ConfigError, match="not found"):
            load_config("/nonexistent/run.cfg", environ={})

    def test_directory_rejected_with_its_cause(self, tmp_path):
        with pytest.raises(ConfigError, match="Is a directory"):
            load_config(str(tmp_path), environ={})

    def test_effective_lines_round_trip(self, tmp_path):
        # '%' is literal in a file, as it is in --set
        cfg = load_config(overrides=["scenario.v_a=17.5", "mc.seed=99",
                                     "output.path=/tmp/k%.csv"], environ={})
        path = tmp_path / "effective.cfg"
        path.write_text("\n".join(cfg.effective_lines()) + "\n")
        again = load_config(str(path), environ={})
        assert again.values == cfg.values

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="mc.seed must be >= 0, got -1"):
            load_config(overrides=["mc.seed=-1"], environ={})
        assert load_config(overrides=["mc.seed=0"], environ={})["mc"]["seed"] == 0

    def test_l_bc_values(self):
        cfg = load_config(overrides=["sweep.l_bc_values_km=0, 2.5 ,7"], environ={})
        assert cfg.l_bc_values() == [0.0, 2.5, 7.0]


def assert_cells_match_the_reference(args: list[str], path: Path) -> None:
    """The first and the last K cell of each curve of the CSV that the command
    `args` wrote to path are within the exact reference's bound."""
    cells = k_cells(args, path.read_text())
    last = {label: index for label, index, *_ in cells}
    for label, index, s, g, k in cells:
        if index in (0, last[label]):
            ref = reference_cell(s, g)
            assert within_reference_bound(k, ref), (label, index, k, ref)


def assert_finite_or_2(args: list[str], code: int, captured, path: Path, finite: bool) -> bool:
    """For an extreme input whose reference key rate is finite (`finite`), the
    command exits 0, silent on stderr, and writes the reference's cells; it
    returns whether it checked that."""
    if finite:
        assert code == 0 and captured.err == ""
        assert_cells_match_the_reference(args, path)
    return finite


class TestExitCodes:
    def test_keyrate_ok(self, capsys):
        assert main(["keyrate"]) == 0
        out = capsys.readouterr().out
        assert "K=" in out and "status=positive" in out

    def test_config_error_is_2(self, capsys, tmp_path):
        assert main(["--set", "scenario.bogus=1", "keyrate"]) == 2
        assert "config error" in capsys.readouterr().err
        # malformed files: no section header, an unclosed header, an option set
        # twice, a byte that is not UTF-8
        for i, text in enumerate([b"v_a = 3\n", b"[mc]\nseed = 1\n[scenario\n",
                                  b"[scenario]\nv_a = 3\nv_a = 4\n", b"[scenario]\nv_a = 3\xff\n"]):
            path = tmp_path / f"bad{i}.cfg"
            path.write_bytes(text)
            assert main(["--config", str(path), "keyrate"]) == 2
            captured = capsys.readouterr()
            assert "config error" in captured.err and str(path) in captured.err
            assert captured.out == ""

    @pytest.mark.parametrize("where", ["--out", "output.path"])
    def test_unwritable_output_is_2(self, capsys, tmp_path, where):
        path = tmp_path / "missing" / "x.csv"
        args = ["--out", str(path)] if where == "--out" else ["--set", f"output.path={path}"]
        assert main([*args, "keyrate"]) == 2
        captured = capsys.readouterr()
        assert "config error" in captured.err and str(path) in captured.err
        assert captured.out == ""

    def test_bad_value_is_2(self, capsys):
        assert main(["--set", "scenario.v_a=-5", "keyrate"]) == 2

    # the seed keys the random streams, and the config takes non-negative integers only
    @pytest.mark.parametrize("args", [["--seed", "-1"], ["--set", "mc.seed=-5"]])
    def test_negative_seed_is_2(self, capsys, args):
        assert main([*args, "--set", "mc.n=1000", "oracle"]) == 2
        captured = capsys.readouterr()
        assert "config error: mc.seed" in captured.err and "Traceback" not in captured.err
        assert captured.out == ""

    # printed statistics are fixed by (config, seed); a change of the sampler
    # or of the estimators that moves them shows here. The identities'
    # deviations are rounding: a few ulps of their scale
    ORACLE_7 = """\
PASS covariance_vs_analytic (max|dev|/scale=1.73e-16) seed=7 n=30000
PASS parameter_estimation_roundtrip (z(T)=0.26 z(eps')=0.20) seed=7 n=30000
PASS pm_eb_equivalence (max|dev|/scale=9.11e-17 k=1.3766) seed=7 n=30000
PASS measurement_rescaling_invariance (max|dev|/scale=7.40e-17) seed=7 n=30000
"""
    ORACLE_DEFAULT = """\
PASS covariance_vs_analytic (max|dev|/scale=1.82e-16) seed=12345 n=100000
PASS parameter_estimation_roundtrip (z(T)=0.49 z(eps')=0.68) seed=12345 n=100000
PASS pm_eb_equivalence (max|dev|/scale=9.11e-17 k=1.3452) seed=12345 n=100000
PASS measurement_rescaling_invariance (max|dev|/scale=3.64e-17) seed=12345 n=100000
"""

    def test_oracle_pass_is_0(self, capsys):
        args = ["--set", "mc.n=30000", "--seed", "7",
                "--set", "scenario.l_ac_km=3", "--set", "scenario.l_bc_km=1",
                "oracle"]
        assert main(args) == 0
        assert capsys.readouterr().out == self.ORACLE_7

    def test_oracle_default_output(self, capsys):
        assert main(["oracle"]) == 0
        assert capsys.readouterr().out == self.ORACLE_DEFAULT

    # drawn and predicted at the fixed gain 1.0, not at the optimal gain 1.41
    ORACLE_FIXED_GAIN = """\
PASS covariance_vs_analytic (max|dev|/scale=1.73e-16) seed=12345 n=100000
PASS parameter_estimation_roundtrip (z(T)=0.83 z(eps')=0.50) seed=12345 n=100000
PASS pm_eb_equivalence (max|dev|/scale=9.93e-17 k=0.9753) seed=12345 n=100000
PASS measurement_rescaling_invariance (max|dev|/scale=4.83e-17) seed=12345 n=100000
"""

    def test_oracle_fixed_gain_output(self, capsys):
        args = ["--set", "scenario.l_ac_km=3", "--set", "scenario.l_bc_km=2",
                "--set", "scenario.gain_mode=fixed", "--set", "scenario.gain=1.0", "oracle"]
        assert main(args) == 0
        assert capsys.readouterr().out == self.ORACLE_FIXED_GAIN

    def test_oracle_negative_control_is_1(self, capsys):
        args = ["--set", "mc.n=30000", "--seed", "7",
                "--set", "scenario.l_ac_km=3", "--set", "scenario.l_bc_km=1",
                "oracle", "--negative-control"]
        assert main(args) == 1
        assert "FAIL covariance_vs_analytic" in capsys.readouterr().out

    @pytest.mark.parametrize("override, field", [
        ("scenario.l_ac_km=nan", "scenario.l_ac_km"),
        ("scenario.eps_a=nan", "scenario.eps_a"),
        ("scenario.l_ac_km=inf", "scenario.l_ac_km"),
        ("scenario.l_ac_km=1e5", "scenario.l_ac_km"),
        ("scenario.v_b=1", "v_b"),
        ("sweep.l_max_km=1e5", "sweep.l_max_km"),
        ("sweep.l_bc_values_km=0,nan", "sweep.l_bc_values_km"),
        ("sweep.l_bc_values_km=", "sweep.l_bc_values_km"),
        ("scenario.gain=1", "scenario.gain"),
    ])
    def test_non_finite_or_degenerate_input_is_2(self, capsys, override, field):
        assert main(["--set", override, "keyrate"]) == 2
        captured = capsys.readouterr()
        assert field in captured.err and "Traceback" not in captured.err
        assert captured.out == ""

    # T = eta_a g^2 / 2 underflows to 0 and eps' overflows at 1e-300; T
    # overflows at 1e300: either would print a NaN key rate
    @pytest.mark.parametrize("gain", ["1e-300", "1e300"])
    @pytest.mark.parametrize("command", [["keyrate"], ["sweep", "symmetric"]])
    def test_fixed_gain_outside_the_reduction_is_2(self, capsys, gain, command):
        args = ["--set", "scenario.gain_mode=fixed", "--set", f"scenario.gain={gain}", *command]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert "config error: scenario.gain" in captured.err and "Traceback" not in captured.err
        assert captured.out == ""

    # finite at the configured 0 km legs, so `keyrate` runs, but not on the
    # grid: at 1e-150 eps' = inf from 320 km (T = 5e-309 at 400 km); at
    # 1e-153 eps' = inf from 20 km legs, and the ideal reference's (V = 1e5)
    # at 0 km; at 1e100 the kernels overflow at the configured legs. Each
    # printed NaN rows with exit 0 before the grid was checked.
    @pytest.mark.parametrize("gain, command", [
        ("1e-150", ["sweep", "asymmetric"]),
        ("1e-150", ["figure", "fig5b"]),
        ("1e-150", ["figure", "fig6"]),
        ("1e-153", ["figure", "fig4"]),
        ("1e-153", ["figure", "fig6"]),
        ("1e100", ["figure", "fig6"]),
    ])
    def test_fixed_gain_outside_the_reduction_on_the_grid_is_2(self, capsys, tmp_path, gain,
                                                               command):
        fixed = ["--set", "scenario.gain_mode=fixed", "--set", f"scenario.gain={gain}",
                 "--set", "sweep.l_max_km=400"]
        path = tmp_path / "x.csv"
        assert main([*fixed, "--out", str(path), *command]) == 2
        captured = capsys.readouterr()
        # the point that fails names the command; a failure at the configured legs is
        # a config error before any command runs
        where = "" if gain == "1e100" else f"{' '.join(command)}: "
        assert f"config error: {where}scenario.gain = {float(gain)!r}: the key rate at legs of " \
            in captured.err and "Traceback" not in captured.err
        assert captured.out == "" and not path.exists()
        if gain == "1e-150":
            assert main([*fixed, "keyrate"]) == 0
            assert "K=-5.764472826856873 " in capsys.readouterr().out

    # the channel is finite (T = 5e99 and 5e199 at 0 km) but the block overflowed
    # the scalar kernels of (a, b, c): at 1e50 each command printed NaN cells
    # with exit 0, at 1e100 it ended in an OverflowError traceback. Since 0.23.0
    # the kernels of (V_A, T, eps') give the reference's cells at 1e50 (K =
    # -336.99 at 0 km) with exit 0; at 1e100 (T eps' = 2e200) they overflow
    @pytest.mark.parametrize("gain", ["1e50", "1e100"])
    @pytest.mark.parametrize("command", [["keyrate"], ["sweep", "symmetric"],
                                         ["figure", "fig4"], ["figure", "fig5b"]])
    def test_fixed_gain_without_a_finite_key_rate_is_2(self, capsys, tmp_path, gain, command):
        path = tmp_path / "x.csv"
        fixed = ["--set", "scenario.gain_mode=fixed", "--set", f"scenario.gain={gain}"]
        code = main([*fixed, "--out", str(path), *command])
        captured = capsys.readouterr()
        if assert_finite_or_2([*fixed, *command], code, captured, path, gain == "1e50"):
            return
        assert code == 2
        assert "config error: scenario.gain" in captured.err and "key rate" in captured.err
        assert "Traceback" not in captured.err and captured.out == ""
        assert not path.exists()

    def test_fig6_k_scan_without_a_finite_key_rate_is_2(self, capsys):
        # V_A = 1e200 overflows the block at every k: once NaN rows, exit 0
        assert main(["--set", "scenario.v_a=1e200", "--set", "sweep.points=3",
                     "figure", "fig6"]) == 2
        captured = capsys.readouterr()
        # the first k the maximum evaluates, k0 / 10 at 0 km legs
        assert ("config error: figure fig6: the key rate at legs of 0.0 and 0.0 km and "
                "k = 0.13452275349402615 is not finite") in captured.err
        assert "Traceback" not in captured.err and captured.out == ""

    # finite extreme inputs: the equivalent channel, its block or the kernels
    # overflow at some k of the span. At V_A = 1e20 only the span's ends did,
    # and K near k0 was finite but impossible (the kernels of (a, b, c)
    # cancelled to chi_BE < 0); since 0.23.0 that form exits 0 with the
    # reference's cells
    @pytest.mark.parametrize("override", ["scenario.v_a=1e200", "scenario.v_b=1e200",
                                          "scenario.eps_a=1e300", "scenario.v_el=1e300",
                                          "scenario.eta_d=1e-300", "scenario.v_a=1e20"])
    def test_fig6_extreme_input_is_2(self, capsys, tmp_path, override):
        path = tmp_path / "x.csv"
        args = ["--set", "sweep.points=3", "--set", override, "figure", "fig6"]
        code = main(["--out", str(path), *args])
        captured = capsys.readouterr()
        if assert_finite_or_2(args, code, captured, path, override == "scenario.v_a=1e20"):
            return
        assert code == 2
        assert "config error: figure fig6: the key rate at legs of " in captured.err
        assert " and k = " in captured.err
        assert "Traceback" not in captured.err and captured.out == ""

    # T underflows to 0 while eps' stays finite (1.23e308 at 1.9e-162): without
    # the T > 0 half of the guard each form printed K = 0.0 with exit 0. At
    # 2.5e-162 T is 5e-324 up to 5 km and 0.0 at 10 km.
    @pytest.mark.parametrize("gain, command", [
        ("1.9e-162", ["keyrate"]),
        ("2.5e-162", ["--set", "sweep.points=3", "sweep", "asymmetric"]),
    ])
    def test_transmittance_underflow_is_2(self, capsys, tmp_path, gain, command):
        path = tmp_path / "x.csv"
        assert main(["--set", "scenario.v_b=1.0000000000000002", "--set",
                     "scenario.gain_mode=fixed", "--set", f"scenario.gain={gain}",
                     "--out", str(path), *command]) == 2
        captured = capsys.readouterr()
        assert f"scenario.gain = {float(gain)!r}: " in captured.err and "T = 0.0 " in captured.err
        assert "Traceback" not in captured.err and captured.out == ""
        assert not path.exists()

    # finite extreme inputs overflow the equivalent channel, its block or the
    # kernels at a point or a range-search probe: each form ended in a
    # ValueError (math domain error) or OverflowError traceback, exit 1. Since
    # 0.23.0 the inputs of FINITE_EXTREME have the reference's finite cells and
    # exit 0: V_A = 1e20, 1e79 and 3e16 cancelled in the kernels of (a, b, c)
    # (printing K = nan at 1e79, a ZeroDivisionError at 3e16), and at V_B =
    # 1e200 eps' cancelled to 3.8e168 in the reduction
    FINITE_EXTREME = {("scenario.v_b=1e200", "sweep", "symmetric"),
                      ("scenario.v_b=1e200", "figure", "fig5b"),
                      ("scenario.v_a=1e20", "sweep", "asymmetric"),
                      ("scenario.v_a=1e79", "keyrate"), ("scenario.v_a=3e16", "keyrate")}

    @pytest.mark.parametrize("override, command", [
        ("scenario.v_a=1e200", ["keyrate"]),
        ("scenario.v_a=1e200", ["sweep", "symmetric"]),
        ("scenario.eps_a=1e300", ["keyrate"]),
        ("scenario.eps_a=1e300", ["sweep", "symmetric"]),
        ("scenario.v_el=1e300", ["keyrate"]),
        ("scenario.v_el=1e300", ["sweep", "symmetric"]),
        ("scenario.eta_d=1e-300", ["keyrate"]),
        ("scenario.eta_d=1e-300", ["sweep", "symmetric"]),
        ("scenario.v_b=1e200", ["sweep", "symmetric"]),
        ("scenario.v_b=1e200", ["figure", "fig5b"]),
        ("scenario.v_a=1e20", ["sweep", "asymmetric"]),
        ("scenario.v_a=1e79", ["keyrate"]),
        ("scenario.v_a=3e16", ["keyrate"]),
    ])
    def test_key_rate_overflow_at_extreme_input_is_2(self, capsys, tmp_path, override, command):
        path = tmp_path / "x.csv"
        args = ["--set", "sweep.points=3", "--set", override, *command]
        code = main(["--out", str(path), *args])
        captured = capsys.readouterr()
        if assert_finite_or_2(args, code, captured, path,
                              (override, *command) in self.FINITE_EXTREME):
            return
        assert code == 2
        assert f"config error: {' '.join(command)}: the key rate at legs of " in captured.err
        assert "Traceback" not in captured.err and captured.out == ""
        assert not path.exists()

    # valid inputs at the edge of the float range. A subnormal eps' (1e-310)
    # made (nu2 - 1)/2 so small that the entropy's reciprocal of it
    # overflowed: the key rate was not finite and keyrate exited 2. At V_A one
    # ulp above 1 and k = 0.1 k0, the Holevo bound's log1p took an argument
    # that rounded to -1, a math domain error: fig6 exited 2
    @pytest.mark.parametrize("args", [
        ["--set", "scenario.eps_a=1e-310", "--set", "scenario.eps_b=0", "keyrate"],
        ["--set", "scenario.v_a=1.0000000000000002", "figure", "fig6"],
    ])
    def test_float_edge_input_is_0(self, capsys, tmp_path, args):
        path = tmp_path / "x.csv"
        assert main(["--out", str(path), *args]) == 0
        assert capsys.readouterr().err == ""
        assert_cells_match_the_reference(args, path)

    # the key rate is still positive at the 2000 km per-leg cap: one-sided at
    # 0.001 dB/km; symmetric (1411.5 km total at 0.001 dB/km) at 0.0001 dB/km.
    # At 10 dB/km on the pure-loss channel at L_BC = 0 it is still positive at
    # 256 km, and a 512 km leg underflows: that search ended in a ValueError
    # traceback
    @pytest.mark.parametrize("attenuation, command", [
        ("0.001", ["sweep", "asymmetric"]),
        ("0.0001", ["figure", "fig4"]),
        ("10", ["--set", "scenario.eps_a=0", "--set", "scenario.eps_b=0", "--set",
                "sweep.l_bc_values_km=0", "--set", "sweep.points=1", "figure", "fig5b"]),
    ])
    def test_range_beyond_search_cap_is_2(self, capsys, tmp_path, attenuation, command):
        path = tmp_path / "x.csv"
        args = ["--set", f"scenario.attenuation_db_per_km={attenuation}", "--out", str(path),
                *command]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert "2000 km" in captured.err and "scenario.attenuation_db_per_km" in captured.err
        assert "Traceback" not in captured.err and captured.out == ""
        assert not path.exists()

    def test_oracle_sample_size_below_estimation_floor_is_2(self, capsys):
        assert main(["--set", "mc.n=10", "oracle"]) == 2
        err = capsys.readouterr().err
        assert "mc.n" in err and "Traceback" not in err

    # the sampler draws a perfect relay detector, and the oracle checks
    # sources with V below oracle.V_LIMIT; at v_a = 1 Alice's modulation is
    # zero and estimation divides by a^2 - 1
    @pytest.mark.parametrize("override, field", [
        ("scenario.eta_d=0.9", "scenario.eta_d"),
        ("scenario.v_el=0.01", "scenario.v_el"),
        ("scenario.v_a=1e8", "scenario.v_a"),
        ("scenario.v_a=1", "scenario.v_a"),
    ])
    def test_oracle_scenario_outside_the_sampler_is_2(self, capsys, override, field):
        assert main(["--set", override, "--set", "mc.n=1000", "oracle"]) == 2
        captured = capsys.readouterr()
        assert field in captured.err and "Traceback" not in captured.err
        assert captured.out == ""


def log_uniform(low: float, high: float):
    """Floats spread evenly in log10 between low and high."""
    return st.floats(math.log10(low), math.log10(high)).map(lambda e: 10.0 ** e)


def finite_cells(row: list[str]) -> bool:
    """A sweep or figure CSV row's number cells are finite floats; an
    endpoint row (label `...:max_...`) leaves its other cells empty, and an
    ideal reference's endpoint may be inf."""
    label = row[2]
    endpoint = ":max_" in label
    for cell in row[:2] + row[3:]:
        if cell == "" and endpoint:
            continue
        value = float(cell)
        if not (math.isfinite(value) or (value == math.inf and endpoint
                                          and label.startswith("ideal"))):
            return False
    return True


# a value of each input in its usual range, and across the whole finite range
# where the channel, its block or the kernels overflow or underflow
LEGS = ("scenario.l_ac_km", "scenario.l_bc_km", "sweep.l_max_km", "sweep.l_bc_values_km")
TYPICAL = {
    "scenario.v_a": log_uniform(1.0, 1e5), "scenario.v_b": log_uniform(1.5, 1e5),
    "scenario.eps_a": st.floats(0.0, 0.1), "scenario.eps_b": st.floats(0.0, 0.1),
    "scenario.eta_d": st.floats(0.5, 1.0), "scenario.v_el": st.floats(0.0, 0.1),
    "scenario.attenuation_db_per_km": log_uniform(0.05, 1.0),
    "legs": st.tuples(*[st.floats(0.0, 50.0)] * len(LEGS)),
    "scenario.gain": st.none() | log_uniform(0.3, 3.0),
}
EXTREME = {
    "scenario.v_a": log_uniform(1.0, 1e200),
    "scenario.v_b": log_uniform(1.0000000000000002, 1e200),
    "scenario.eps_a": log_uniform(1e-3, 1e300), "scenario.eps_b": log_uniform(1e-3, 1e300),
    "scenario.eta_d": log_uniform(1e-300, 1.0), "scenario.v_el": log_uniform(1e-3, 1e300),
    "scenario.attenuation_db_per_km": log_uniform(1e-3, 20.0),
    "legs": st.tuples(*[st.floats(0.0, 500.0)] * len(LEGS)),
    "scenario.gain": log_uniform(1e-300, 1e300),
}


# The CLI contract (ROADMAP item 4): on any finite input each command prints
# finite numbers with exit 0, or exits 2 with a config error, no traceback
# and no CSV. Up to two inputs of each example span their whole range; the
# rest keep their usual one, so that both outcomes are drawn.
@settings(max_examples=200, deadline=None, derandomize=True)
@given(command=st.sampled_from([["keyrate"], ["sweep", "symmetric"], ["sweep", "asymmetric"],
                                ["figure", "fig4"], ["figure", "fig5b"], ["figure", "fig6"]]),
       extreme=st.sets(st.sampled_from(sorted(EXTREME)), max_size=2),
       points=st.integers(1, 3), data=st.data())
def test_property_every_command_is_finite_or_2(command, extreme, points, data):
    values = {name: data.draw((EXTREME if name in extreme else TYPICAL)[name], label=name)
              for name in TYPICAL}
    values.update(zip(LEGS, values.pop("legs")))
    values["sweep.l_bc_values_km"] = f"0,{values['sweep.l_bc_values_km']!r}"
    values["sweep.points"] = points
    if values["scenario.gain"] is not None:
        values["scenario.gain_mode"] = "fixed"
    args = [arg for key, value in values.items() if value is not None
            for arg in ("--set", f"{key}={value}")]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "x.csv"
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*args, "--out", str(path), *command])
        if code == 2:
            assert err.getvalue().startswith("config error: ") and out.getvalue() == ""
            assert "Traceback" not in err.getvalue() and not path.exists()
            return
        assert code == 0 and err.getvalue() == ""
        rows = [line.split(",") for line in path.read_text().splitlines()
                if not line.startswith("#")][1:]
    if command == ["keyrate"]:
        printed = dict(field.split("=", 1) for field in out.getvalue().split())
        numbers = [printed[name] for name in ("K", "I_AB", "chi_BE", "g")] + rows[0][:4]
        assert all(math.isfinite(float(number)) for number in numbers)
    else:
        assert rows and all(finite_cells(row) for row in rows)


class TestCsvOutput:
    SWEEP = ["--set", "sweep.l_max_km=4", "--set", "sweep.points=5"]

    def test_sweep_deterministic(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main([*self.SWEEP, "--out", str(p1), "sweep", "symmetric"]) == 0
        assert main([*self.SWEEP, "--out", str(p2), "sweep", "symmetric"]) == 0
        assert p1.read_bytes() == p2.read_bytes()

    def test_sweep_content(self, tmp_path):
        path = tmp_path / "sweep.csv"
        main([*self.SWEEP, "--out", str(path), "sweep", "symmetric"])
        lines = path.read_text().splitlines()
        comments = [ln for ln in lines if ln.startswith("#")]
        assert any("[scenario]" in ln for ln in comments)
        header_i = len(comments)
        assert lines[header_i] == "axis_km,K_bits_per_use,curve_label"
        data = [ln.split(",") for ln in lines[header_i + 1:]]
        # 5 grid rows plus the max-distance footer record
        assert len(data) == 6
        assert data[-1][2].endswith(":max_distance")
        # full precision round trip of a key-rate value
        k = float(data[0][1])
        assert repr(k) == data[0][1]

    def test_values_match_library(self, tmp_path):
        from cvmdi.keyrate import key_rate_at
        from cvmdi.config import load_config
        path = tmp_path / "sweep.csv"
        main([*self.SWEEP, "--out", str(path), "sweep", "symmetric"])
        scenario = load_config(environ={}).scenario()
        rows = [ln.split(",") for ln in path.read_text().splitlines()
                if not ln.startswith("#")][1:-1]
        for total, k, _ in rows:
            assert float(k) == key_rate_at(scenario, float(total) / 2, float(total) / 2)

    def test_asymmetric_sweep_curves(self, tmp_path):
        path = tmp_path / "asym.csv"
        args = [*self.SWEEP, "--set", "sweep.l_bc_values_km=0,2",
                "--out", str(path), "sweep", "asymmetric"]
        assert main(args) == 0
        body = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
        labels = {ln.split(",")[2] for ln in body[1:]}
        assert "l_bc=0km" in labels and "l_bc=2km" in labels

    def test_figure_fig6_columns(self, tmp_path):
        path = tmp_path / "fig6.csv"
        args = ["--set", "sweep.l_max_km=2", "--set", "sweep.points=3",
                "--out", str(path), "figure", "fig6"]
        assert main(args) == 0
        body = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
        assert body[0] == "axis_km,K_bits_per_use,curve_label,k_opt"
        rows = [ln.split(",") for ln in body[1:]]
        betas = {r[2] for r in rows}
        assert "beta=1" in betas and "beta=0.95" in betas
        # optimized k is positive on every grid row
        for r in rows:
            if not r[2].endswith(":max_distance"):
                assert float(r[3]) > 0.0

    def test_keyrate_csv(self, tmp_path, capsys):
        path = tmp_path / "point.csv"
        assert main(["--out", str(path), "keyrate"]) == 0
        body = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
        assert body[0].startswith("K_bits_per_use")
        assert body[1].endswith("positive")
        # the optimal gain is a float: its cell and its printed token are its repr
        g = optimal_gain(load_config(environ={}).scenario())
        cell = dict(zip(body[0].split(","), body[1].split(",")))["g"]
        token = dict(tok.split("=", 1) for tok in capsys.readouterr().out.split())["g"]
        assert cell == token == repr(g)
        assert float(cell) == g

    def test_oracle_csv(self, tmp_path, capsys):
        path = tmp_path / "oracle.csv"
        assert main(["--set", "mc.n=2000", "--out", str(path), "oracle"]) == 0
        printed = capsys.readouterr().out.splitlines()
        lines = path.read_text().splitlines()
        # the effective-config header parses back as a config file
        header = tmp_path / "header.cfg"
        header.write_text("".join(ln[2:] + "\n" for ln in lines if ln.startswith("# ")))
        assert load_config(str(header), environ={})["mc"]["n"] == 2000
        body = [ln.split(",") for ln in lines if not ln.startswith("#")]
        assert body[0] == ["suite", "status", "detail", "seed", "n"]
        assert [f"{status} {suite} ({detail}) seed={int(seed)} n={int(n)}"
                for suite, status, detail, seed, n in body[1:]] == printed
        assert [row[1] for row in body[1:]] == ["PASS"] * 4
        # an unwritable path exits 2 before anything is printed
        missing = tmp_path / "missing" / "x.csv"
        assert main(["--set", "mc.n=2000", "--out", str(missing), "oracle"]) == 2
        captured = capsys.readouterr()
        assert str(missing) in captured.err and captured.out == ""

    def test_output_path_sets_the_default_out(self, tmp_path, capsys):
        path = tmp_path / "fromcfg.csv"
        args = [*self.SWEEP, "--set", f"output.path={path}", "sweep", "symmetric"]
        assert main(args) == 0
        assert capsys.readouterr().out == ""
        assert path.read_text().splitlines()[-1].endswith(":max_distance")
        other = tmp_path / "flag.csv"
        assert main([*args[:-2], "--out", str(other), "sweep", "symmetric"]) == 0
        assert other.read_bytes() == path.read_bytes()


def test_grid_is_np_linspace_bit_for_bit():
    """The sweep grid is built without numpy, value and sign of zero included."""
    rng = np.random.default_rng(2)
    cases = [(0.0, 10.0, num) for num in (1, 2, 3, 51, 1000)]
    cases += [(4.0, 4.0, 5), (-0.0, -0.0, 3), (-0.0, 3.0, 1), (-0.0, 3.0, 4), (0.0, 7.3, 9)]
    # delta / (num - 1) underflows to 0: numpy scales i / (num - 1) instead
    cases += [(0.0, 5e-324, 3), (1e-310, 1e-310 + 5e-324, 4), (2.5e-323, 0.0, 12)]
    cases += zip(rng.uniform(-50.0, 100.0, 40).tolist(), rng.uniform(-50.0, 100.0, 40).tolist(),
                 rng.integers(1, 400, 40).tolist())
    for start, stop, num in cases:
        grid = _grid(RunConfig({"sweep": {"l_min_km": start, "l_max_km": stop, "points": num}}))
        expected = np.linspace(start, stop, num).tolist()
        assert all(type(x) is float for x in grid)
        assert grid == expected, (start, stop, num)
        assert [math.copysign(1.0, x) for x in grid] == [math.copysign(1.0, x) for x in expected]


# runs in a fresh interpreter: prints, after each step, which of the lazily
# loaded modules are in sys.modules
COLD_START = """
import json, sys
from cvmdi.cli import main

def loaded(step):
    names = ("numpy", "cvmdi.montecarlo", "cvmdi.oracle", "configparser")
    print(json.dumps([step, [m for m in names if m in sys.modules]]), file=sys.stderr)

loaded("import")
for argv in json.loads(sys.argv[1]):
    main(argv)
    loaded(argv[-1])
"""


def child_env(**extra) -> dict:
    """The test process's environment for a cold `cvmdi` child: no CVMDI_
    variables, the package's source on PYTHONPATH, then extra."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("CVMDI_")}
    src = str(Path(cvmdi.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return {**env, **extra}


def test_only_oracle_loads_the_monte_carlo_layer(tmp_path):
    """Each command is one cold process, so it loads only what it uses: the
    Monte Carlo layer for `oracle` alone, `configparser` for a `--config`
    file, and numpy for none of them."""
    config = tmp_path / "run.cfg"
    config.write_text("[sweep]\npoints = 3\n")
    out = ["--out", str(tmp_path / "x.csv")]
    small = ["--set", "sweep.points=3", *out]
    fixed = ["--set", "scenario.gain_mode=fixed", "--set", "scenario.gain=1.2"]
    steps = [[*out, "keyrate"], [*fixed, *out, "keyrate"], [*small, "sweep", "symmetric"],
             [*small, "sweep", "asymmetric"], [*small, "figure", "fig4"],
             [*small, "figure", "fig5b"], ["--set", "scenario.bogus=1", *out, "keyrate"],
             [*small, "figure", "fig6"], [*out, "--set", "mc.n=2000", "oracle"],
             ["--config", str(config), *out, "keyrate"]]
    proc = subprocess.run([sys.executable, "-c", COLD_START, json.dumps(steps)],
                          capture_output=True, text=True, env=child_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    records = [json.loads(ln) for ln in proc.stderr.splitlines() if ln.startswith("[")]
    monte_carlo = ["cvmdi.montecarlo", "cvmdi.oracle"]
    assert records == [["import", []], ["keyrate", []], ["keyrate", []], ["symmetric", []],
                       ["asymmetric", []], ["fig4", []], ["fig5b", []], ["keyrate", []],
                       ["fig6", []], ["oracle", monte_carlo],
                       ["keyrate", [*monte_carlo, "configparser"]]]
    assert proc.stderr.count("config error: unknown key scenario.bogus") == 1


def test_oracle_prints_the_same_lines_in_every_process_and_blas_kernel():
    """`oracle` prints, byte for byte, the lines of `run_oracle_suites` in this
    process: in children with other hash seeds, and in one that runs
    OpenBLAS's generic kernel. Its sums are `math.fsum`, not BLAS products,
    and its draw is keyed by the seed alone. Computed with BLAS, the default
    rescaling line printed 7.28e-17 on one x86-64 kernel and 3.64e-17 on the
    generic one."""
    from cvmdi.oracle import run_oracle_suites

    n = 2000
    cfg = load_config(None, [f"mc.n={n}"], environ={})
    seed = cfg["mc"]["seed"]
    expected = "".join(f"{'PASS' if r.passed else 'FAIL'} {r.name} ({r.detail}) seed={seed} n={n}\n"
                       for r in run_oracle_suites(cfg.scenario(), n, seed))
    envs = [{"PYTHONHASHSEED": "1"}, {"PYTHONHASHSEED": "2"}, {"OPENBLAS_CORETYPE": "Prescott"}]
    printed = [subprocess.run([sys.executable, "-m", "cvmdi.cli", "--set", f"mc.n={n}", "oracle"],
                              capture_output=True, text=True, env=child_env(**extra),
                              timeout=120).stdout for extra in envs]
    assert printed == [expected] * len(envs)
