"""Every golden form prints the bytes recorded in tests/golden/ (see golden.py)."""

import difflib
import time

import golden


def test_every_golden_form_prints_its_recorded_bytes():
    start = time.perf_counter()
    diffs = []
    for name in golden.FORMS:
        expected = golden.path(name).read_text()
        actual = golden.record(name)
        if actual != expected:
            diffs += difflib.unified_diff(expected.splitlines(True), actual.splitlines(True),
                                          f"golden/{name}.txt", "now", n=0)
    elapsed = time.perf_counter() - start
    assert not diffs, "".join(diffs)
    assert elapsed < 2.0
