"""Seeded inputs, timed items and correctness checks of the three workloads.

Every workload exposes the same five steps:

* `next_input()` draws the next input from a `random.Random` seeded by the
  workload name and `--seed`, so the same seed gives the same inputs;
* `warm_up()` readies the process, untimed: `figures` and `oracle` run one
  item on an input from a separate stream, `cli` imports the CLI;
* `run(inp)` is the timed item;
* `check(inp, out)` runs outside the timed region and returns failure
  messages (an empty list means the item is correct);
* `probes()` gives the inputs, drawn from a separate stream, that show the
  known defects the workload's own inputs do not reach (see KNOWN_DEFECTS).

The library is called through its module attributes (`keyrate.sweep_symmetric`
rather than a name bound here), so that the tracer's wrappers see the calls.
"""

from __future__ import annotations

import json
import math
import os
import random
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from time import perf_counter

import numpy as np

from cvmdi import keyrate, protocol
from cvmdi.protocol import ChannelParams, DetectorParams, Scenario

HERE = Path(__file__).resolve().parent

# Figure grids as the CLI builds them from its default sweep config.
AXIS_KM = np.linspace(0.0, 10.0, 51)
LEGS_KM = AXIS_KM / 2.0
L_BC_KM = (0.0, 1.0, 3.0)
KOPT_KM = np.linspace(0.0, 10.0, 21)
ETA_TOL = 1e-6  # default tolerance of keyrate.min_detector_efficiency
CROSS_CHECKS = 4  # points per figures item compared with the generic path

N_MC = 1_000_000
N_EXPORT = 100_000
CLI_N_MC = 100_000
RETEST_SEED_OFFSET = 1_000_003
EXPORT_COLUMNS = "X_A,P_A,X_B,P_B,X_C,P_D"

# A failure whose every message carries one of these markers is a known
# defect of the library. Such an item lies outside the workload: the run sets
# it aside and counts it under its defect's name (see run.Run). Each defect
# shows in every run. The figures stream hits the range defect on about one
# item in twelve; the other two lie outside the workloads' inputs (cli
# keyrate items use a fixed gain, oracle scenarios keep V <= 10^ORACLE_V_EXP[1])
# and are shown by each workload's `probes()`, run after the timed window.
KNOWN_DEFECTS = {
    # `keyrate` prints and writes `g=np.float64(...)` under numpy 2 in the
    # default optimal-gain mode
    "keyrate g column is a numpy repr": "keyrate: g cell 'np.float64(",
    # keyrate._max_distance bisects [0.5, 1] km when K(1 km) <= 0 without
    # checking K(0.5 km) > 0, so a range under 0.5 km comes back as ~0.504 km
    "range under 0.5 km reported from the unchecked first bracket": "unchecked first bracket",
    # the estimation suite's z(eps') and the rescaling suite's |dK_max| grow
    # with V far beyond their limits (see HIGH_V_TREND)
    "oracle estimation/rescaling suite fails at high V": "[high-V trend]",
}
# Recorded trend of that defect, over 150 items with V from 10^2.5 to 1e5 at
# n = 1e5 and 1e6 (r = V/sqrt(n)): z(T) < 4 throughout; z(eps') <= 2.3 r and
# <= 72; |dK_max| <= 1.3e-6 V, whatever n. A failure within twice these bounds
# (and with z(T) < 4) is the known defect; any other failure is new.
HIGH_V_TREND = {"z_eps_per_r": 4.6, "z_eps_max": 144.0, "dk_per_v": 2.6e-6}
FIRST_BRACKET_KM = 0.5
# V range of oracle scenarios, as exponents of 10: below the high-V defect
# (r <= 0.32 at n = 1e5, where no suite failed in 60 trial items at V = 10^2
# and 10^2.5)
ORACLE_V_EXP = (0.7, 2.0)
PROBE_V = 1e5  # V of the high-V probes, the top of the figures range


def known_defect(messages: list[str]) -> tuple[str, ...] | None:
    """Names of the known defects behind messages, or None if there are no
    messages or any of them is new."""
    names = set()
    for m in messages:
        hits = [name for name, marker in KNOWN_DEFECTS.items() if marker in m]
        if not hits:
            return None
        names.update(hits)
    return tuple(sorted(names)) or None


def _log_uniform(rng: random.Random, lo_exp: float, hi_exp: float) -> float:
    return 10.0 ** rng.uniform(lo_exp, hi_exp)


def _bracket(f, x: float, tol: float, what: str, distance: bool = True) -> list[str]:
    """x must sit within tol of the point where f changes sign (f > 0 below)."""
    if x == 0.0:
        return [] if f(0.0) <= 0.0 else [f"{what}: endpoint 0 but K(0) > 0"]
    lo, hi = max(x - tol, 0.0), x + tol
    f_lo, f_hi = f(lo), f(hi)
    if f_lo > 0.0 and f_hi <= 0.0:
        return []
    msg = (f"{what}: endpoint {x!r} does not bracket the sign change "
           f"(K({lo!r})={f_lo!r}, K({hi!r})={f_hi!r})")
    if distance and f_lo <= 0.0 and FIRST_BRACKET_KM < x <= FIRST_BRACKET_KM + tol:
        msg += " [unchecked first bracket]"
    return [msg]


def _non_finite(values) -> list[str]:
    bad = [v for v in values if not math.isfinite(v)]
    return [f"non-finite values {bad[:3]}"] if bad else []


# -- figures -------------------------------------------------------------------
class Figures:
    """fig4/fig5b/fig6 data of one seeded scenario, in-process and warm."""

    name = "figures"
    cycle_len = 1  # items_per_s windows hold whole cycles of this many items

    def __init__(self, seed: int):
        self.rng = random.Random(f"figures:{seed}")
        self.warm_rng = random.Random(f"figures:warm:{seed}")

    @staticmethod
    def scenario(rng: random.Random) -> Scenario:
        v = _log_uniform(rng, 0.7, 5.0)
        return Scenario(
            v_a=v, v_b=v,
            channel_a=ChannelParams(0.0, 0.2, rng.uniform(0.0, 0.01)),
            channel_b=ChannelParams(0.0, 0.2, rng.uniform(0.0, 0.01)),
            beta_r=rng.uniform(0.9, 1.0),
            detector=DetectorParams(rng.uniform(0.6, 1.0), rng.uniform(0.0, 0.05)),
        )

    def next_input(self):
        return self.scenario(self.rng), self.rng.randrange(2**31)

    def warm_up(self) -> None:
        self.run((self.scenario(self.warm_rng), 0))

    def probes(self) -> list:
        return []  # the scenario stream itself reaches the range defect

    def run(self, inp):
        s, _ = inp
        return (
            keyrate.sweep_symmetric(s, LEGS_KM),
            keyrate.sweep_asymmetric(s, AXIS_KM, L_BC_KM),
            [keyrate.optimize_k_detection_scheme(s.with_lengths(float(l), 0.0)) for l in KOPT_KM],
            keyrate.max_distance_detection_scheme(s),
            keyrate.min_detector_efficiency(s),
        )

    def check(self, inp, out) -> list[str]:
        s, check_seed = inp
        sym, asym, kopt, det_range, eta_min = out
        curves = sym.curves + asym.curves
        fails = _non_finite([p.k for c in curves for p in c.points]
                            + [v for pair in kopt for v in pair]
                            + [c.max_distance_km for c in curves] + [det_range, eta_min])
        tol = keyrate.BISECT_TOL_KM

        def rate(l_ac, l_bc):
            return keyrate.secret_key_rate(s.with_lengths(l_ac, l_bc)).k

        fails += _bracket(lambda leg: rate(leg, leg), sym.curves[0].max_distance_km / 2.0, tol,
                          "symmetric range (per leg)")
        for l_bc, curve in zip(L_BC_KM, asym.curves):
            fails += _bracket(lambda l: rate(l, l_bc), curve.max_distance_km, tol,
                              f"asymmetric range at L_BC={l_bc}")
        fails += _bracket(lambda l: keyrate.optimize_k_detection_scheme(s.with_lengths(l, 0.0))[1],
                          det_range, tol, "detection-scheme range")

        def eta_rate(eta):
            d = DetectorParams(min(eta, 1.0), s.detector.electronic_noise)
            return -keyrate.secret_key_rate(replace(s, detector=d)).k

        # K rises with detector efficiency, so bracket -K as a function of eta
        fails += _bracket(eta_rate, eta_min, ETA_TOL, "detector-efficiency threshold", distance=False)

        scale = (s.v_b - 1.0) / (s.v_b + 1.0)
        points = [(p.scenario, p.g_used, p.k) for c in curves for p in c.points]
        points += [(s.with_lengths(float(l), 0.0), k / math.sqrt(scale), kmax)
                   for l, (k, kmax) in zip(KOPT_KM, kopt)]
        rng = random.Random(check_seed)
        rng.shuffle(points)
        checked = 0
        for ps, g, k in points:
            if checked == CROSS_CHECKS:
                break
            ref = generic_key_rate(ps, g)
            if ref is None:
                continue
            checked += 1
            if abs(k - ref) > 1e-8 * (1.0 + math.log2(ps.v_a)):
                fails.append(f"K={k!r} differs from the generic path {ref!r} at L=("
                             f"{float(ps.channel_a.length_km)!r}, {float(ps.channel_b.length_km)!r})"
                             f" g={float(g)!r}")
        return fails


def generic_key_rate(s: Scenario, g: float) -> float | None:
    """K from the explicit composition and the symplectic/conditioning path.

    The relay detector enters the model as the penalty 2*chi_det/eta_a on the
    equivalent excess noise, which equals that much more excess noise on the
    first leg with a perfect detector. Returns None where the composition
    cannot represent the scenario (a lossless leg carrying excess noise).
    """
    chi_det = protocol.detector_noise(s.detector.efficiency, s.detector.electronic_noise)
    eta_a = s.channel_a.transmittance
    ideal = replace(
        s,
        channel_a=replace(s.channel_a, excess_noise=s.channel_a.excess_noise + 2.0 * chi_det / eta_a),
        detector=DetectorParams(),
    )
    for ch in (ideal.channel_a, ideal.channel_b):
        if ch.transmittance >= 1.0 and ch.excess_noise > 0.0:
            return None
    cm = protocol.compose_eb_simulated(ideal, g)
    return s.beta_r * keyrate.mutual_information_generic(cm) - keyrate.holevo_bound_reverse_generic(cm)


# -- oracle --------------------------------------------------------------------
class Oracle:
    """Monte Carlo oracle at n = 1e6 plus one exported 1e5-row batch."""

    name = "oracle"
    cycle_len = 1

    def __init__(self, seed: int, tmp: Path):
        from cvmdi import montecarlo, oracle

        self.mc, self.oracle = montecarlo, oracle
        self.rng = random.Random(f"oracle:{seed}")
        self.warm_rng = random.Random(f"oracle:warm:{seed}")
        self.probe_rng = random.Random(f"oracle:probe:{seed}")
        self.tmp = tmp
        self.count = 0
        self.suite_log: list[str] = []  # every checked item's suite details

    @staticmethod
    def scenario(rng: random.Random) -> Scenario:
        """Lossy legs and a perfect relay detector: the sampler models neither a
        lossless noisy leg nor detector noise."""
        v = _log_uniform(rng, *ORACLE_V_EXP)
        return Scenario(
            v_a=v, v_b=v,
            channel_a=ChannelParams(rng.uniform(0.5, 10.0), 0.2, rng.uniform(0.0, 0.01)),
            channel_b=ChannelParams(rng.uniform(0.5, 10.0), 0.2, rng.uniform(0.0, 0.01)),
            beta_r=rng.uniform(0.9, 1.0),
        )

    def next_input(self):
        self.count += 1
        return self.scenario(self.rng), self.rng.randrange(2**30), N_MC, N_EXPORT, self.count

    def warm_up(self) -> None:
        """A small item whose export is parsed back; the suite verdicts of so
        few samples are not checked."""
        inp = (self.scenario(self.warm_rng), 1, 4_000, 1_000, 0)
        self.export_failures(inp, self.run(inp)[1])

    def probes(self) -> list:
        """One high-V scenario at n = CLI_N_MC, for the high-V defect."""
        self.count += 1
        s = replace(self.scenario(self.probe_rng), v_a=PROBE_V, v_b=PROBE_V)
        return [(s, self.probe_rng.randrange(2**30), CLI_N_MC, 1_000, self.count)]

    def _path(self, inp) -> Path:
        return self.tmp / f"export-{inp[4]}.csv"

    def run(self, inp):
        s, seed, n, rows, _ = inp
        t0 = perf_counter()
        suites = self.oracle.run_oracle_suites(s, n, seed)
        t1 = perf_counter()
        batch = self.mc.simulate_pm(s, keyrate.analytic_k(s), rows, seed + 1)
        t2 = perf_counter()
        self.mc.export_csv(batch, self._path(inp))
        t3 = perf_counter()
        return suites, batch, t1 - t0, t3 - t2

    def check(self, inp, out) -> list[str]:
        s, seed, n, _, _ = inp
        suites, batch, _, _ = out
        return (suite_failures(self.oracle, s, n, seed, suites, self.suite_log)
                + self.export_failures(inp, batch))

    def export_failures(self, inp, batch) -> list[str]:
        rows = inp[3]
        path = self._path(inp)
        try:
            with open(path) as fh:
                fh.readline()
                header = fh.readline().strip()
            data = np.loadtxt(path, delimiter=",", skiprows=2, ndmin=2)
        except (OSError, ValueError) as exc:
            return [f"export did not parse back: {exc}"]
        finally:
            path.unlink(missing_ok=True)
        fails = []
        if header != EXPORT_COLUMNS:
            fails.append(f"export header {header!r}")
        if data.shape != (rows, 6) or not np.array_equal(data, batch.data_matrix()):
            fails.append("exported CSV does not parse back to the same floats")
        return fails


def suite_failures(oracle_module, s: Scenario, n: int, seed: int, suites, log: list) -> list[str]:
    """Failed oracle suites; a failure that is not the known high-V defect is
    retested once on an independent seed. Appends the item's suite details
    to log.

    A suite compares |z| with 4, and the estimation suite's z follows a
    t-distribution with 9 degrees of freedom, so a correct program fails about
    one item in a few hundred. A defect fails again on the retest; a
    statistical tail does not.
    """
    log.append(f"V={s.v_a:.4g} n={n}: " + "; ".join(r.detail for r in suites))
    failed = [r for r in suites if not r.passed]
    known = [r for r in failed if within_high_v_trend(r, s.v_a, n)]
    fails = [f"suite {r.name} ({r.detail}) at V={s.v_a!r} n={n} [high-V trend]" for r in known]
    failed = [r for r in failed if r not in known]
    if not failed:
        return fails
    retest = {r.name: r for r in oracle_module.run_oracle_suites(s, n, seed + RETEST_SEED_OFFSET)}
    for r in failed:
        again = retest.get(r.name)
        if again is not None and again.passed:
            continue
        if again is not None and within_high_v_trend(again, s.v_a, n):
            fails.append(f"suite {r.name} ({r.detail}, on retest {again.detail}) at V={s.v_a!r} "
                         f"n={n} [high-V trend]")
        else:
            fails.append(f"suite {r.name} failed ({r.detail}) and on retest "
                         f"({again.detail if again else 'absent'})")
    return fails


def within_high_v_trend(result, v: float, n: int) -> bool:
    """Whether a failed suite's statistics lie within HIGH_V_TREND."""
    stats = dict(re.findall(r"([\w()'|]+)=([-+.\deE]+)", result.detail))
    try:
        if result.name == "parameter_estimation_roundtrip":
            z_t, z_eps = float(stats["z(T)"]), float(stats["z(eps')"])
            limit = min(HIGH_V_TREND["z_eps_per_r"] * v / math.sqrt(n), HIGH_V_TREND["z_eps_max"])
            return z_t < 4.0 and z_eps <= limit
        if result.name == "measurement_rescaling_invariance":
            return float(stats["|dK_max|"]) <= HIGH_V_TREND["dk_per_v"] * v
    except (KeyError, ValueError):
        pass
    return False


# -- cli -----------------------------------------------------------------------
# Every command form of the CLI has the same share: each cycle of len(CLI_MIX)
# items runs every form once, in a seeded order. "error" is one form, a
# documented config error drawn from CONFIG_ERRORS.
CLI_MIX = ("keyrate", "sweep symmetric", "sweep asymmetric", "figure fig4", "figure fig5b",
           "figure fig6", "oracle", "error")
CONFIG_ERRORS = ("scenario.bogus=1", "sweep.points=many", "scenario.v_a=abc")
LABEL_COLUMNS = {"curve_label", "status"}
NUMPY_REPR = re.compile(r"np\.float64\((.*)\)")


class Cli:
    """One cold `python -m cvmdi.cli` process per item, fixed seeded mix."""

    name = "cli"
    cycle_len = len(CLI_MIX)

    def __init__(self, seed: int, root: Path, tmp: Path):
        from cvmdi import config

        self.config = config
        self.rng = random.Random(f"cli:{seed}")
        self.probe_rng = random.Random(f"cli:probe:{seed}")
        self.tmp = tmp
        self.count = 0
        self.suite_log: list[str] = []  # every checked oracle item's suite details
        # command forms left in the current cycle; the first item, which a
        # run reports apart as its cold item, stands alone before the cycles
        self.cycle: list[str] = [self.rng.choice(CLI_MIX)]
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("CVMDI_")}
        self.env["PYTHONPATH"] = str(root / "src")
        self.cwd = root

    def overrides(self, rng: random.Random, oracle: bool, v: float | None = None) -> list[str]:
        s = Oracle.scenario(rng) if oracle else Figures.scenario(rng)
        if v is not None:
            s = replace(s, v_a=v, v_b=v)
        sets = {
            "v_a": s.v_a, "v_b": s.v_b, "eps_a": s.channel_a.excess_noise,
            "eps_b": s.channel_b.excess_noise, "beta_r": s.beta_r,
            "eta_d": s.detector.efficiency, "v_el": s.detector.electronic_noise,
        }
        if oracle:
            sets.update(l_ac_km=s.channel_a.length_km, l_bc_km=s.channel_b.length_km)
        return [f"scenario.{k}={v!r}" for k, v in sets.items()]

    def next_input(self) -> dict:
        if not self.cycle:
            self.cycle = self.rng.sample(CLI_MIX, len(CLI_MIX))
        return self.command(self.cycle.pop(), self.rng)

    def probes(self) -> list[dict]:
        """keyrate in its default optimal-gain mode, for the numpy-repr
        defect, and oracle at V = PROBE_V, for the high-V defect."""
        return [self.command("keyrate", self.probe_rng, probe=True),
                self.command("oracle", self.probe_rng, probe=True)]

    def command(self, kind: str, rng: random.Random, probe: bool = False) -> dict:
        self.count += 1
        out = self.tmp / f"out-{self.count}.csv"
        sets, tail = [], kind.split()
        if kind == "keyrate":
            sets = self.overrides(rng, False)
            sets += [f"scenario.l_ac_km={rng.uniform(0.0, 20.0)!r}",
                     f"scenario.l_bc_km={rng.uniform(0.0, 5.0)!r}"]
            if not probe:
                sets += ["scenario.gain_mode=fixed", f"scenario.gain={rng.uniform(0.5, 2.0)!r}"]
        elif kind == "oracle":
            sets = self.overrides(rng, True, PROBE_V if probe else None) + [f"mc.n={CLI_N_MC}"]
            tail = ["--seed", str(rng.randrange(2**30)), "oracle"]
        elif kind == "error":
            sets = [rng.choice(CONFIG_ERRORS)]
            tail = ["keyrate"]
        else:
            sets = self.overrides(rng, False) + [f"sweep.l_max_km={rng.uniform(5.0, 15.0)!r}"]
        args = [a for item in sets for a in ("--set", item)] + ["--out", str(out)] + tail
        return {"kind": kind, "args": args, "sets": sets, "out": out,
                "seed": int(tail[1]) if kind == "oracle" else None}

    def warm_up(self) -> None:
        """Imports the CLI and the oracle in process for the checks; the import
        also writes the bytecode that the children load."""
        from cvmdi import cli, oracle  # noqa: F401

    def child(self, argv: list[str]) -> subprocess.CompletedProcess:
        return subprocess.run(argv, capture_output=True, text=True, env=self.env, cwd=self.cwd,
                              timeout=120)

    def run(self, inp) -> subprocess.CompletedProcess:
        return self.child([sys.executable, "-m", "cvmdi.cli", *inp["args"]])

    def run_traced(self, inp, spans_path: Path) -> tuple[subprocess.CompletedProcess, dict]:
        """The item in a child that runs cvmdi.cli under the tracer; returns
        the process and the child's record (see trace_child.py)."""
        proc = self.child([sys.executable, str(HERE / "trace_child.py"), str(spans_path), "--",
                           *inp["args"]])
        try:
            return proc, json.loads(spans_path.read_text())
        finally:
            spans_path.unlink(missing_ok=True)

    def check(self, inp, proc) -> list[str]:
        out: Path = inp["out"]
        try:
            return self._check(inp, proc, out)
        finally:
            out.unlink(missing_ok=True)

    def _check(self, inp, proc, out: Path) -> list[str]:
        kind = inp["kind"]
        if kind == "error":
            fails = [] if proc.returncode == 2 else [f"exit {proc.returncode}, expected 2"]
            if "config error" not in proc.stderr:
                fails.append(f"no field-level message: {proc.stderr.strip()[-200:]!r}")
            if out.exists():
                fails.append("a config error still wrote output")
            return fails
        cfg = self.config.load_config(None, inp["sets"], environ={})
        if kind == "oracle":
            return self._check_oracle(cfg, inp, proc)
        if proc.returncode != 0:
            return [f"exit {proc.returncode}, expected 0: {proc.stderr.strip()[-200:]!r}"]
        try:
            text = out.read_text()
        except OSError as exc:
            return [f"no CSV written: {exc}"]
        lines = [line for line in text.splitlines() if not line.startswith("#")]
        header = lines[0].split(",")
        cells = [(col, cell) for line in lines[1:] for col, cell in zip(header, line.split(","))
                 if col not in LABEL_COLUMNS and cell != ""]
        if kind == "keyrate":
            cells += [tuple(tok.split("=", 1)) for tok in proc.stdout.split()
                      if tok.split("=", 1)[0] in ("K", "I_AB", "chi_BE", "g")]
        fails, values = [], []
        for col, cell in cells:
            try:
                values.append(float(cell))
                continue
            except ValueError:
                fails.append(f"{kind}: {col} cell {cell!r} does not parse as a float")
            # a numpy repr still carries its number, so the value is compared too
            repr_match = NUMPY_REPR.fullmatch(cell)
            values.append(float(repr_match[1]) if repr_match else math.nan)
        expected = self.expected(cfg, kind)
        if kind == "keyrate":
            expected = expected + expected  # the CSV row, then the printed line
        if values != expected:
            diff = next((i for i, (a, b) in enumerate(zip(values, expected)) if a != b),
                        min(len(values), len(expected)))
            return fails + [f"{kind}: {len(values)} values, {len(expected)} expected; "
                            f"first difference at #{diff}"]
        return fails + _non_finite(values)

    def _check_oracle(self, cfg, inp, proc) -> list[str]:
        from cvmdi import oracle

        n, seed = cfg["mc"]["n"], inp["seed"]
        suites = oracle.run_oracle_suites(cfg.scenario(), n, seed)
        lines = [f"{'PASS' if r.passed else 'FAIL'} {r.name} ({r.detail}) seed={seed} n={n}"
                 for r in suites]
        if proc.stdout.splitlines() != lines:
            return [f"oracle output differs from the library: {proc.stdout.strip()[-200:]!r}"]
        code = 0 if all(r.passed for r in suites) else 1
        if proc.returncode != code:
            return [f"exit {proc.returncode}, expected {code}"]
        return suite_failures(oracle, cfg.scenario(), n, seed, suites, self.suite_log)

    def expected(self, cfg, kind: str) -> list[float]:
        """The numbers the command writes, computed by the library in process."""
        scenario = cfg.scenario()
        sw = cfg["sweep"]
        grid = np.linspace(sw["l_min_km"], sw["l_max_km"], sw["points"])
        if kind == "keyrate":
            p = keyrate.secret_key_rate(scenario)
            return [p.k, p.i_ab, p.chi_be, float(p.g_used)]
        if kind == "figure fig6":
            values = []
            for beta in (1.0, 0.95):
                scn = replace(scenario, beta_r=beta)
                for l in grid:
                    k_opt, k_max = keyrate.optimize_k_detection_scheme(scn.with_lengths(l, 0.0))
                    values += [float(l), k_max, k_opt]
                values.append(keyrate.max_distance_detection_scheme(scn.with_lengths(0.0, 0.0)))
            return values
        from cvmdi import cli

        ideal = replace(scenario, v_a=cli.IDEAL_V, v_b=cli.IDEAL_V,
                        channel_a=replace(scenario.channel_a, excess_noise=0.0),
                        channel_b=replace(scenario.channel_b, excess_noise=0.0))
        results = {
            "sweep symmetric": lambda: [keyrate.sweep_symmetric(scenario, grid / 2.0)],
            "sweep asymmetric": lambda: [keyrate.sweep_asymmetric(scenario, grid, cfg.l_bc_values())],
            "figure fig4": lambda: [keyrate.sweep_symmetric(x, grid / 2.0) for x in (scenario, ideal)],
            "figure fig5b": lambda: [keyrate.sweep_asymmetric(x, grid, cfg.l_bc_values())
                                     for x in (scenario, ideal)],
        }[kind]()
        values = []
        for result in results:
            for curve in result.curves:
                for axis, point in zip(curve.axis_km, curve.points):
                    values += [float(axis), point.k]
                values.append(curve.max_distance_km)
        return values
