"""Command-line front end: keyrate, figure, sweep, and oracle subcommands.

Exit codes: 0 success, 1 suite failure, 2 configuration error. Output CSVs
carry the effective configuration in '#'-prefixed comment lines and use
shortest round-trip decimal formatting.

Each run is one cold process, so a command loads only the layers it uses:
`keyrate`, `sweep` and `figure` load the analytic path (`protocol`,
`kernels`, `keyrate`), which has one form of each formula, the scalar `math`
kernels, and evaluates one point at a time with it, the k maximum of
`figure fig6` included. Every key rate a command computes, at a point, a
range-search probe or a k, passes one guard in `keyrate`: unless T > 0 and
K is finite (finite but extreme inputs, or a fixed gain outside the
reduction), it raises `keyrate.KeyRateNotFinite`. `main` alone turns that
error into exit 2, naming the command; the message names the fixed gain,
the legs and the k. A fixed gain that fails at the configured legs is a
`ConfigError` already (`config.check_fixed_gain`). `oracle` alone loads the
Monte Carlo layer (`montecarlo`, `oracle`), inside `cmd_oracle`; it computes
in `math` too, so no command loads numpy. `configparser` is loaded only to
read a `--config` file.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace

from .config import ConfigError, RunConfig, load_config
from .keyrate import (
    MAX_DISTANCE_CAP_KM,
    KeyRateNotFinite,
    max_distance_detection_scheme,
    optimize_k_detection_scheme,
    secret_key_rate,
    sweep_asymmetric,
    sweep_symmetric,
)

IDEAL_V = 1e5  # modulation variance used for "ideal" comparison curves


def _fmt(x) -> str:
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _write_csv(path, cfg: RunConfig, header: list[str], rows: list[tuple]) -> None:
    lines = [f"# {line}" for line in cfg.effective_lines()]
    lines.append(",".join(header))
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    text = "\n".join(lines) + "\n"
    if path:
        try:
            with open(path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write output {path}: {exc.strerror}") from exc
    else:
        sys.stdout.write(text)


def _grid(cfg: RunConfig) -> list[float]:
    """The sweep grid in plain floats, bit for bit `np.linspace(l_min_km,
    l_max_km, points)`: i*step + start, and stop as the last point."""
    sw = cfg["sweep"]
    start, stop, num = sw["l_min_km"], sw["l_max_km"], sw["points"]
    delta, div = stop - start, num - 1
    if div == 0:
        return [0.0 * delta + start]  # not `start`: -0.0 becomes 0.0, as in numpy
    step = delta / div
    if step == 0.0:  # a subnormal delta: numpy scales i/div by delta instead
        grid = [i / div * delta + start for i in range(num)]
    else:
        grid = [i * step + start for i in range(num)]
    grid[-1] = stop
    return grid


def cmd_keyrate(cfg: RunConfig, out: str | None) -> int:
    point = secret_key_rate(cfg.scenario())
    status = "positive" if point.positive else "nonpositive"
    # the CSV first: an unwritable path exits 2 before anything is printed
    if out:
        _write_csv(out, cfg, ["K_bits_per_use", "I_AB_bits", "chi_BE_bits", "g", "status"],
                   [(point.k, point.i_ab, point.chi_be, point.g_used, status)])
    print(f"K={point.k!r} I_AB={point.i_ab!r} chi_BE={point.chi_be!r} "
          f"g={point.g_used!r} gain={point.scenario.gain_mode} status={status}")
    return 0


def _endpoint(km: float, label: str) -> float:
    """A range endpoint of the configured scenario: `inf`, beyond the search, exits 2."""
    if math.isinf(km):
        raise ConfigError(f"{label}: the key rate is still positive where the range search "
                          f"stops, at the {MAX_DISTANCE_CAP_KM:g} km per-leg search cap or before "
                          f"a leg whose transmittance underflows to 0, so the range endpoint "
                          f"lies beyond the search; a larger scenario.attenuation_db_per_km "
                          f"shortens the range")
    return km


def _curve_rows(curve, label: str, end: str, bounded: bool = True) -> list[tuple]:
    """The curve's grid rows under `label`, then its endpoint row `label:end`."""
    rows = [(axis, point.k, label) for axis, point in zip(curve.axis_km, curve.points)]
    km = _endpoint(curve.max_distance_km, label) if bounded else curve.max_distance_km
    return rows + [(km, "", f"{label}:{end}")]


def cmd_figure(cfg: RunConfig, figure: str, out: str | None) -> int:
    scenario = cfg.scenario()
    header = ["axis_km", "K_bits_per_use", "curve_label"]
    rows = []
    if figure == "fig6":
        header.append("k_opt")
        for beta in (1.0, 0.95):
            scn = replace(scenario, beta_r=beta)
            label = f"beta={beta:g}"
            for l_ab in _grid(cfg):
                s = scn.with_lengths(l_ab, 0.0)
                k_opt, k_max = optimize_k_detection_scheme(s)
                rows.append((l_ab, k_max, label, k_opt))
            endpoint = max_distance_detection_scheme(scn.with_lengths(0.0, 0.0))
            rows.append((_endpoint(endpoint, label), "", f"{label}:max_distance", ""))
    else:
        # the ideal reference's range can be unbounded (ideal:l_bc=0km): it keeps inf
        ideal = _idealized(scenario)
        for label, scn in (("practical", scenario), ("ideal", ideal)):
            bounded = scn is scenario
            if figure == "fig4":
                (curve,) = sweep_symmetric(scn, [l / 2.0 for l in _grid(cfg)]).curves
                rows += _curve_rows(curve, label, "max_total_distance", bounded)
            else:
                for curve in sweep_asymmetric(scn, _grid(cfg), cfg.l_bc_values()).curves:
                    rows += _curve_rows(curve, f"{label}:{curve.label}", "max_distance", bounded)
    _write_csv(out, cfg, header, rows)
    return 0


def _idealized(scenario):
    return replace(
        scenario,
        v_a=IDEAL_V, v_b=IDEAL_V,
        channel_a=replace(scenario.channel_a, excess_noise=0.0),
        channel_b=replace(scenario.channel_b, excess_noise=0.0),
    )


def cmd_sweep(cfg: RunConfig, mode: str, out: str | None) -> int:
    scenario = cfg.scenario()
    if mode == "symmetric":
        result = sweep_symmetric(scenario, [l / 2.0 for l in _grid(cfg)])
    else:
        result = sweep_asymmetric(scenario, _grid(cfg), cfg.l_bc_values())
    rows = [row for c in result.curves for row in _curve_rows(c, c.label, "max_distance")]
    _write_csv(out, cfg, ["axis_km", "K_bits_per_use", "curve_label"], rows)
    return 0


def cmd_oracle(cfg: RunConfig, negative_control: bool, out: str | None) -> int:
    from .montecarlo import UnsupportedScenario
    from .oracle import run_oracle_suites

    n, seed = cfg["mc"]["n"], cfg["mc"]["seed"]
    try:
        results = run_oracle_suites(cfg.scenario(), n, seed, wrong_sign=negative_control)
    except UnsupportedScenario as exc:
        raise ConfigError(str(exc)) from exc
    rows = [(r.name, "PASS" if r.passed else "FAIL", r.detail, seed, n) for r in results]
    # the CSV first: an unwritable path exits 2 before anything is printed
    if out:
        _write_csv(out, cfg, ["suite", "status", "detail", "seed", "n"], rows)
    for name, status, detail, _, _ in rows:
        print(f"{status} {name} ({detail}) seed={seed} n={n}")
    return 0 if all(r.passed for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cvmdi",
        description="Security analysis of relay-based continuous-variable QKD",
    )
    parser.add_argument("--config", metavar="PATH", help="config file (INI-style sections)")
    parser.add_argument("--set", action="append", default=[], metavar="SEC.KEY=VAL",
                        help="override a config entry (repeatable)")
    parser.add_argument("--out", metavar="PATH",
                        help="write CSV here instead of stdout (default: output.path)")
    parser.add_argument("--seed", type=int, help="Monte Carlo seed (overrides mc.seed)")

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("keyrate", help="single key-rate evaluation")
    fig = sub.add_parser("figure", help="emit data for a reference figure")
    fig.add_argument("figure_id", choices=["fig4", "fig5b", "fig6"])
    swp = sub.add_parser("sweep", help="generic distance sweep")
    swp.add_argument("mode", choices=["symmetric", "asymmetric"])
    orc = sub.add_parser("oracle", help="run the Monte Carlo verification suites")
    orc.add_argument("--negative-control", action="store_true",
                     help="test hook: wrong-sign displacement (the covariance identity fails)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        overrides = list(args.set)
        if args.seed is not None:
            overrides.append(f"mc.seed={args.seed}")
        cfg = load_config(args.config, overrides)
        out = args.out or cfg["output"]["path"] or None
        if args.command == "keyrate":
            return cmd_keyrate(cfg, out)
        if args.command == "figure":
            return cmd_figure(cfg, args.figure_id, out)
        if args.command == "sweep":
            return cmd_sweep(cfg, args.mode, out)
        return cmd_oracle(cfg, args.negative_control, out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except KeyRateNotFinite as exc:  # a point, a probe or a k at finite but extreme inputs
        command = " ".join([args.command] + [getattr(args, name) for name in ("figure_id", "mode")
                                             if hasattr(args, name)])
        print(f"config error: {command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
