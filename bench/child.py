"""Run one ``twoenv`` CLI command in this fresh process and record its cost.

    python3 bench/child.py --setup-only
    python3 bench/child.py RESULT.json [--trace] -- <twoenv arguments>

``--setup-only`` imports ``twoenv.cli``, loads the calibrated constants and
exits at once; the caller times it from spawn to exit.  Otherwise the
command runs through ``twoenv.cli.main`` exactly as the ``twoenv`` script
runs it, and RESULT.json receives its exit code, its wall and CPU time
after set-up, the process's peak resident memory and, with ``--trace``,
the spans recorded around calls into each layer.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time


def _set_up():
    import twoenv.cli
    from twoenv.presets import load_constants

    load_constants()
    return twoenv.cli


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def main(argv: list[str]) -> int:
    if argv == ["--setup-only"]:
        _set_up()
        os._exit(0)  # skip interpreter teardown: set-up ends here
    if len(argv) < 2 or "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 64
    split = argv.index("--")
    result_path, options, command = argv[0], argv[1:split], argv[split + 1:]

    t_start = time.perf_counter()
    cli = _set_up()
    import_s = time.perf_counter() - t_start
    tracer = None
    if "--trace" in options:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    cpu0, t0 = _cpu_s(), time.perf_counter()
    code = cli.main(command)
    t1, cpu1 = time.perf_counter(), _cpu_s()

    result = {
        "exit": code,
        "wall_s": t1 - t0,
        "cpu_s": cpu1 - cpu0,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "import_s": import_s,
    }
    if tracer is not None:
        result.update(tracer.dump())
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
