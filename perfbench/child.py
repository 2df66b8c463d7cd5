"""One CLI call in a fresh interpreter, timed from outside ``tehscreen.cli.main``.

Usage: python3 child.py RESULT.json [--trace] -- CLI-ARGS...

Writes RESULT.json with the call's exit code, wall and CPU seconds, peak RSS,
machine facts and, with --trace, every span recorded around the public
functions of the tehscreen layers.
"""

import json
import os
import pathlib
import platform
import resource
import sys
import time

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def _blas():
    import numpy

    try:
        deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
    except TypeError:  # numpy < 1.26 has no dict mode
        return None
    return deps.get("blas")


def machine_facts():
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "env": {k: v for k, v in sorted(os.environ.items())
                if k.endswith("_NUM_THREADS") or k == "TEH_SCREEN_THREADS"},
    }


def _cpu_s():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main():
    result_path = sys.argv[1]
    trace = sys.argv[2] == "--trace"
    cli_args = sys.argv[sys.argv.index("--") + 1:]

    import tehscreen.cli

    module_path = pathlib.Path(tehscreen.cli.__file__).resolve()
    if SRC.resolve() not in module_path.parents:
        sys.exit(f"tehscreen was imported from {module_path}, not from {SRC}")

    tracer = None
    if trace:
        sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    code = tehscreen.cli.main(cli_args)
    wall = time.perf_counter() - t0
    cpu = _cpu_s() - cpu0

    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    result = {
        "exit_code": code,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": peak_kb / 1024.0,
        "machine": machine_facts(),
        "wrapped": tracer.wrapped if tracer else None,
        "spans": tracer.spans if tracer else None,
    }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0 if code == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
