"""Golden outputs of the `cvmdi` CLI: the bytes each fixed command form prints.

Each form of FORMS runs in process through `cvmdi.cli.main`, with `--out` a
file in a fresh temporary directory. Its record, `golden/<name>.txt`, holds
the arguments, the exit code, stdout, stderr and the CSV the form wrote.
`test_golden.py` compares every record byte for byte, so a change that moves
one cell of one form fails it, and the rewritten records are the diff of
that change. Records are exact on the platform that wrote them: the
analytic path calls libm's `log2`, `log1p` and `pow`, which need not be
correctly rounded everywhere.

Usage (standard library only; the package is read from ../src):
    python tests/golden.py           name the forms whose output differs
    python tests/golden.py --cells   and, for each, its changed numeric cells
                                     and their largest absolute and relative change
    python tests/golden.py --write   rewrite every record
"""

from __future__ import annotations

import contextlib
import io
import math
import re
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parent / "src"))

from cvmdi.cli import main  # noqa: E402


def _set(*pairs: str) -> list[str]:
    return [arg for pair in pairs for arg in ("--set", pair)]


FIXED = _set("scenario.gain_mode=fixed", "scenario.gain=1.2")
DETECTOR = _set("scenario.eta_d=0.9", "scenario.v_el=0.01", "scenario.beta_r=0.95")

FORMS = {
    # every command at the defaults
    "keyrate": ["keyrate"],
    "sweep-symmetric": ["sweep", "symmetric"],
    "sweep-asymmetric": ["sweep", "asymmetric"],
    "figure-fig4": ["figure", "fig4"],
    "figure-fig5b": ["figure", "fig5b"],
    "figure-fig6": ["figure", "fig6"],
    "oracle": ["oracle"],
    # a fixed gain
    "keyrate-fixed-gain": [*FIXED, "keyrate"],
    "sweep-asymmetric-fixed-gain": [*FIXED, "sweep", "asymmetric"],
    # an imperfect relay detector and reconciliation efficiency below 1
    "keyrate-detector": [*DETECTOR, "keyrate"],
    "sweep-symmetric-detector": [*DETECTOR, "sweep", "symmetric"],
    # V = 1e5
    "figure-fig4-v1e5": [*_set("scenario.v_a=1e5", "scenario.v_b=1e5"), "figure", "fig4"],
    # long legs and an extreme modulation
    "sweep-symmetric-3000km": [*_set("sweep.l_max_km=3000", "sweep.points=4"),
                               "sweep", "symmetric"],
    "keyrate-v_a-1e20": [*_set("scenario.v_a=1e20"), "keyrate"],
    "keyrate-v_a-1e7": [*_set("scenario.v_a=1e7", "scenario.l_ac_km=10", "scenario.l_bc_km=1"),
                        "keyrate"],
    # the oracle at two more seeds
    "oracle-seed-1": ["--seed", "1", "oracle"],
    "oracle-seed-2": ["--seed", "2", "oracle"],
}
# the inputs of test_cli's test_key_rate_overflow_at_extreme_input_is_2: those
# that overflow the kernels exit 2, the others print the reference's finite K
EXTREME = [
    ("scenario.v_a=1e200", "keyrate"),
    ("scenario.v_a=1e200", "sweep", "symmetric"),
    ("scenario.eps_a=1e300", "keyrate"),
    ("scenario.eps_a=1e300", "sweep", "symmetric"),
    ("scenario.v_el=1e300", "keyrate"),
    ("scenario.v_el=1e300", "sweep", "symmetric"),
    ("scenario.eta_d=1e-300", "keyrate"),
    ("scenario.eta_d=1e-300", "sweep", "symmetric"),
    ("scenario.v_b=1e200", "sweep", "symmetric"),
    ("scenario.v_b=1e200", "figure", "fig5b"),
    ("scenario.v_a=1e20", "sweep", "asymmetric"),
    ("scenario.v_a=1e79", "keyrate"),
    ("scenario.v_a=3e16", "keyrate"),
]
FORMS.update({f"{'-'.join(command)}-{override.split('.')[1].replace('=', '-')}":
              [*_set("sweep.points=3", override), *command] for override, *command in EXTREME})

def path(name: str) -> Path:
    return HERE / "golden" / f"{name}.txt"


def record(name: str) -> str:
    """The record of form `name`: run it and render what it printed and wrote."""
    args = FORMS[name]
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        csv = Path(tmp) / "out.csv"
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["--out", str(csv), *args])
        written = f"--- csv\n{csv.read_text()}" if csv.exists() else "--- no csv\n"
    return (f"args: {' '.join(args)}\nexit: {code}\n--- stdout\n{out.getvalue()}"
            f"--- stderr\n{err.getvalue()}{written}")


def changed() -> list[str]:
    """The forms whose record differs from the one on disk."""
    return [name for name in FORMS
            if not path(name).exists() or record(name) != path(name).read_text()]


def cells(text: str) -> list[float]:
    """The numeric cells of a record, in order: each token of a line, split at
    spaces, commas and '=', that reads as a float."""
    found = []
    for token in re.split(r"[ ,=\n]", text):
        try:
            found.append(float(token))
        except ValueError:
            pass
    return found


def cell_changes(old: str, new: str) -> str:
    """The changed numeric cells from record old to record new: their count and
    their largest absolute and relative change, or the cell counts where the
    layout changed (a form that exits 0 where it exited 2)."""
    before, after = cells(old), cells(new)
    if len(before) != len(after):
        return f"layout changed: {len(before)} -> {len(after)} numeric cells"
    moved = [(x, y) for x, y in zip(before, after)
             if x != y and not (math.isnan(x) and math.isnan(y))]
    if not moved:
        return f"0 of {len(after)} numeric cells changed"
    largest = max(abs(y - x) for x, y in moved)
    relative = max(abs(y - x) / abs(x) if x else math.inf for x, y in moved)
    return (f"{len(moved)} of {len(after)} numeric cells changed, largest |d| {largest:.2g} "
            f"absolute and {relative:.2g} relative")


if __name__ == "__main__":
    if sys.argv[1:] == ["--cells"]:
        names = changed()
        for name in names:
            print(f"{name}: {cell_changes(path(name).read_text(), record(name))}")
        print(f"{len(names)} of {len(FORMS)} forms changed")
        sys.exit(1 if names else 0)
    if sys.argv[1:] == ["--write"]:
        path("x").parent.mkdir(exist_ok=True)
        for name in FORMS:
            path(name).write_text(record(name))
        print(f"wrote {len(FORMS)} records to {path('x').parent}")
    elif sys.argv[1:]:
        sys.exit(__doc__)
    else:
        names = changed()
        print("\n".join(names) if names else f"all {len(FORMS)} forms unchanged")
        sys.exit(1 if names else 0)
