"""Layered end-to-end benchmark of cvmdi: `figures`, `oracle` and `cli`.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload figures|oracle|cli --seed N \\
        --seconds S --trace 0|1

Each run is a closed loop with one client. It sets up (imports cvmdi, seeds
the input stream, warms up in process), runs the first item and reports it
apart as the cold item, then runs warm items for S seconds, then the
workload's known-defect probes, untimed. Every item is checked for
correctness outside its timed region.

`--trace 0` reports the end-to-end metrics. Their times are scaled to the
nominal speed of a reference timed after each item (see speed.py); the
details line also holds them as measured. `setup_s` is the median over
several fresh processes of the time from spawning the process to the end of
its warm-up. They are spawned at even steps through the timed window, between
items, and their time is added to the window. `--trace 1` alternates traced
and untraced runs of each input and reports the per-layer metrics of the
traced items, plus `trace.overhead`, the untraced time over the traced time
of the same inputs.

The last line of standard output is the result: {"correct", "attempted",
"failed", "metrics"}. The line before it holds the details: the environment,
the cold item, every end-to-end metric of the workload by name with its unit,
the failures, and how many items hit each known defect. An item whose every
failure is one of the known defects in `workloads.KNOWN_DEFECTS` is set aside:
it is not attempted, failed or timed, and counts only under `known_defects`.
`failed` counts every other failed item; `correct` is false when one fails.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_RUNS = 15
WINDOWS = 10  # items_per_s is the median rate over this many windows of consecutive items
P90_MIN_ITEMS = 100
# One BLAS thread. On a shared machine a threaded OpenBLAS runs an oracle item
# up to 3x slower whenever another process holds a core, which would swamp the
# oracle's timings. Set before numpy is imported; child processes inherit it.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# End-to-end metrics of the details line that BENCHMARK.json cannot list: the
# result line must carry every listed metric on every workload, and these are
# either undefined on some workload or 0 on it.
DETAIL_UNITS = {"item_p90_ms": "ms", "samples_per_s": "1/s", "export_rows_per_s": "1/s",
                "error_rate": "ratio"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=["figures", "oracle", "cli"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def make_workload(name: str, seed: int, tmp: Path):
    import workloads

    if name == "figures":
        return workloads.Figures(seed)
    if name == "oracle":
        return workloads.Oracle(seed, tmp)
    return workloads.Cli(seed, ROOT, tmp)


class Run:
    """Items of one run: those attempted, their failures, and those set aside
    because they hit a known defect."""

    def __init__(self, wl, after_item=None):
        import workloads

        self.wl = wl
        self.after_item = after_item  # called right after each timed item, before its check
        self.attempted = 0
        self.failures: list[list[str]] = []  # messages of each failed item
        self.known = dict.fromkeys(workloads.KNOWN_DEFECTS, 0)  # items set aside, per defect

    def item(self, inp, runner=None):
        """Time one item, then check it; returns (output, seconds, what
        after_item returned, kept). kept is False when the item raised or
        was set aside: an item whose every failure is a known defect lies
        outside the workload, so it is neither attempted nor timed."""
        import workloads

        t0 = perf_counter()
        try:
            out = (runner or self.wl.run)(inp)
        except Exception as exc:  # an item that raises is a failed item, not a crash
            self.attempted += 1
            self.failures.append([f"{type(exc).__name__}: {exc}"])
            return None, None, None, False
        dt = perf_counter() - t0
        after = self.after_item() if self.after_item else None
        try:
            messages = self.wl.check(inp, out)
        except Exception as exc:
            messages = [f"check raised {type(exc).__name__}: {exc}"]
        known = workloads.known_defect(messages)
        if known:
            for name in known:
                self.known[name] += 1
            return out, dt, after, False
        self.attempted += 1
        if messages:
            self.failures.append(messages)
        return out, dt, after, True

    def probe(self) -> None:
        """Runs the workload's known-defect probes, untimed (see
        workloads.KNOWN_DEFECTS)."""
        for inp in self.wl.probes():
            self.item(inp)

    def result(self) -> dict:
        return {"correct": not self.failures, "attempted": self.attempted,
                "failed": len(self.failures)}

    def failure_report(self) -> dict:
        return {"known_defects": self.known, "failures": self.failures[:5]}


def environment(args) -> dict:
    import cvmdi
    import numpy

    return {
        "cvmdi": getattr(cvmdi, "__version__", None),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "kernels_backend": getattr(getattr(cvmdi, "kernels", None), "BACKEND", None),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loadavg_1m": os.getloadavg()[0],
    }


def measure_setup(args) -> float:
    """Spawn-to-warm time of one fresh process running this workload's set-up."""
    t0 = time.time()
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"],
        capture_output=True, text=True, cwd=ROOT, timeout=120,
        env={k: v for k, v in os.environ.items() if not k.startswith("CVMDI_")},
    )
    if proc.returncode != 0 or not proc.stdout.startswith("ready "):
        raise RuntimeError(f"setup process failed: {proc.stderr.strip()[-300:]}")
    return float(proc.stdout.split()[1]) - t0


def spec_units(kind: str) -> dict[str, str]:
    """Names and units of BENCHMARK.json's `end_to_end` or `per_layer` metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def window_rate(latencies: list[float], cycle_len: int) -> float:
    """Median over up to WINDOWS windows of consecutive items of their items
    per second; each window holds whole cycles of the workload's mix."""
    k = max(len(latencies) // WINDOWS // cycle_len, 1) * cycle_len
    chunks = [latencies[i:i + k] for i in range(0, len(latencies) - k + 1, k)]
    return statistics.median(len(c) / sum(c) for c in chunks)


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # kB on Linux


def timing_metrics(items, setups, cycle_len: int, scaled: bool) -> dict:
    """Time metrics of the timed items, (seconds, scale, oracle parts), and of
    the set-up samples, (seconds, scale, reference seconds); scaled to the
    reference's nominal speed (see speed.py) or as measured."""
    def k(factor: float) -> float:
        return factor if scaled else 1.0

    lat = [dt * k(f) for dt, f, _ in items]
    m = {
        "setup_s": statistics.median(s * k(f) for s, f, _ in setups),
        "items_per_s": window_rate(lat, cycle_len) if len(lat) >= cycle_len else 0.0,
        "item_p50_ms": statistics.median(lat) * 1e3 if lat else 0.0,
    }
    if len(lat) >= P90_MIN_ITEMS:
        m["item_p90_ms"] = statistics.quantiles(lat, n=10)[8] * 1e3
    # oracle parts: (suites seconds, export seconds, samples, rows)
    parts = [(p, k(f)) for _, f, p in items if p]
    if parts:
        m["samples_per_s"] = sum(p[2] for p, _ in parts) / sum(p[0] * f for p, f in parts)
        m["export_rows_per_s"] = sum(p[3] for p, _ in parts) / sum(p[1] * f for p, f in parts)
    return m


def untraced(args, wl) -> tuple[dict, dict, Run]:
    import speed

    run = Run(wl, lambda: speed.scale(args.workload))
    items, setups = [], []
    _, cold, _, _ = run.item(wl.next_input())
    start = perf_counter()
    deadline = start + args.seconds
    while perf_counter() < deadline:
        inp = wl.next_input()
        out, dt, ref, kept = run.item(inp)
        # set-up samples spread evenly over the window, outside its time
        while len(setups) < SETUP_RUNS * min((perf_counter() - start) / args.seconds, 1.0):
            t0 = perf_counter()
            setups.append((measure_setup(args), *speed.scale("setup")))
            start += perf_counter() - t0
            deadline += perf_counter() - t0
        if not kept:
            continue
        parts = (out[2], out[3], inp[2], inp[3]) if args.workload == "oracle" else None
        items.append((dt, ref[0], parts, ref[1]))
    rss = peak_rss_mb(args.workload)
    setups += [(measure_setup(args), *speed.scale("setup")) for _ in range(SETUP_RUNS - len(setups))]
    run.probe()

    timed = [i[:3] for i in items]
    e2e = {
        **timing_metrics(timed, setups, wl.cycle_len, scaled=True),
        "peak_rss_mb": rss,
        "error_rate": len(run.failures) / run.attempted,
    }
    units = spec_units("end_to_end")
    details = {
        "end_to_end": {k: {"value": v, "unit": units.get(k) or DETAIL_UNITS[k]}
                       for k, v in e2e.items()},
        "unscaled": timing_metrics(timed, setups, wl.cycle_len, scaled=False),
        "reference_median_s": {
            "items": statistics.median(i[3] for i in items) if items else None,
            "setups": statistics.median(s[2] for s in setups),
        },
        "samples": {"items": len(items), "setups": len(setups)},
        "setup_samples_s": [s[0] for s in setups],
        "cold_item_ms": cold * 1e3 if cold is not None else None,
    }
    return {k: {"value": e2e[k], "unit": u} for k, u in units.items()}, details, run


def traced(args, wl, tmp) -> tuple[dict, dict, Run]:
    """Traced and untraced runs of each input, alternating which goes first."""
    import tracer as tr

    run = Run(wl)
    t = tr.Tracer()
    cli = args.workload == "cli"
    first_items, import_s, out_bytes = [], [], []  # first_items: each process's first item
    ids = itertools.count(1)

    def traced_runner(inp):
        item = next(ids)
        if not cli:
            t.install()
            try:
                return t.run_item(item, wl.run, inp)
            finally:
                t.uninstall()
        proc, child = wl.run_traced(inp, tmp / f"spans-{item}.json")
        base = len(t.spans)
        for s in child["spans"]:
            s[tr.PARENT] = s[tr.PARENT] + base if s[tr.PARENT] >= 0 else -1
            s[tr.ITEM] = item
        t.spans.extend(child["spans"])
        first_items.append(child["spans"])
        import_s.append(child["import_s"])
        t.absent = child["absent"]
        out_bytes.append(len(proc.stdout.encode())
                         + (inp["out"].stat().st_size if inp["out"].exists() else 0))
        return proc

    cold = None
    if not cli:  # every cli item is a cold process already
        _, cold, _, _ = run.item(wl.next_input(), traced_runner)
        first_items.append(list(t.spans))
        t.spans.clear()
    pairs = []
    deadline = perf_counter() + args.seconds
    while perf_counter() < deadline:
        inp = wl.next_input()
        order = (True, False) if len(pairs) % 2 == 0 else (False, True)
        dts = {}
        for is_traced in order:
            _, dt, _, kept = run.item(inp, traced_runner if is_traced else None)
            dts[is_traced] = dt if kept else None
        pairs.append(dts)
    run.probe()
    items = sum(1 for s in t.spans if s[tr.NAME] == "bench.item")
    metrics = tr.layer_metrics(t.spans, items)
    metrics.update(tr.draw_times(first_items, [] if cli else t.spans))
    metrics["cli.import_s"] = statistics.median(import_s) if import_s else 0.0
    metrics["cli.output_bytes"] = sum(out_bytes) / len(out_bytes) if out_bytes else 0.0
    both = [p for p in pairs if None not in p.values()]
    metrics["trace.overhead"] = (sum(p[False] for p in both) / sum(p[True] for p in both)
                                 if both else 0.0)
    details = {
        "samples": {"traced_items": items, "pairs": len(both)},
        "cold_item_ms": cold * 1e3 if cold is not None else None,
        "absent": t.absent,
    }
    return {k: {"value": metrics[k], "unit": u} for k, u in spec_units("per_layer").items()}, details, run


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cvmdi" / "__init__.py").is_file():
        print(f"perfbench: no cvmdi package at {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
    import cvmdi

    if Path(cvmdi.__file__).resolve().parent != (SRC / "cvmdi").resolve():
        print(f"perfbench: imported cvmdi from {cvmdi.__file__}, not {SRC}", file=sys.stderr)
        return 2
    tmp = ROOT / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        wl = make_workload(args.workload, args.seed, tmp)
        wl.warm_up()
        if args.setup_only:
            print(f"ready {time.time()!r}", flush=True)
            return 0
        env = environment(args)
        metrics, details, run = traced(args, wl, tmp) if args.trace else untraced(args, wl)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass  # another run shares the directory
    details.update(environment=env, **run.failure_report())
    if hasattr(wl, "suite_log"):
        details["oracle_suites"] = wl.suite_log
    print(json.dumps({"details": details}))
    print(json.dumps({**run.result(), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
