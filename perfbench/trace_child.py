"""Run `cvmdi.cli` in a fresh process with the benchmark's tracer installed.

Usage: python3 perfbench/trace_child.py SPANS_JSON -- [cvmdi arguments]

Times `import cvmdi.cli`, runs `cvmdi.cli.main` under one root span, writes
{"import_s", "spans", "absent"} to SPANS_JSON and exits with main's code. The
package comes from PYTHONPATH, as for `python -m cvmdi.cli`.
"""

import json
import sys
from time import perf_counter

from tracer import Tracer


def main() -> int:
    spans_path, separator, *args = sys.argv[1:]
    if separator != "--":
        raise SystemExit("usage: trace_child.py SPANS_JSON -- [cvmdi arguments]")
    t0 = perf_counter()
    import cvmdi.cli

    import_s = perf_counter() - t0
    tracer = Tracer()
    tracer.install()
    try:
        code = tracer.run_item(0, cvmdi.cli.main, args)
    except SystemExit as exc:
        code = exc.code
    finally:
        tracer.uninstall()
        with open(spans_path, "w") as fh:
            json.dump({"import_s": import_s, "spans": tracer.spans, "absent": tracer.absent}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
