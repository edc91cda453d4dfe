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
    python tests/golden.py --write   rewrite every record
"""

from __future__ import annotations

import contextlib
import io
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
    # the oracle at two more seeds
    "oracle-seed-1": ["--seed", "1", "oracle"],
    "oracle-seed-2": ["--seed", "2", "oracle"],
}
# the exit-2 inputs of test_cli's test_key_rate_overflow_at_extreme_input_is_2
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


if __name__ == "__main__":
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
