"""Child-process entry points of the benchmark.

    python3 bench/probe.py setup <workload> <run_dir>
        Time, in this fresh interpreter, the import of ``tropical_heights``
        and the parsing of one pass's inputs; print the seconds taken.

    python3 bench/probe.py cli <summary.json> <cli arguments...>
        Run one CLI invocation under the per-layer tracer and write the
        tracer's summary to ``summary.json``; exits with the CLI's code.
"""

import json
import os
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(1, str(BENCH.parent / "src"))


def _setup(workload, run_dir):
    with open(os.path.join(run_dir, "manifest.json"), encoding="utf-8") as fh:
        items = json.load(fh)["items"]
    t0 = time.perf_counter()
    import work
    work.build(workload, run_dir, items)
    print(repr(time.perf_counter() - t0))
    return 0


def _cli(summary_path, argv):
    from tropical_heights import cli
    import spans
    tracer = spans.Tracer().install()
    try:
        code = cli.main(argv)
    finally:
        tracer.uninstall()
        with open(summary_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.summary(), fh)
    return code


def main(argv):
    if len(argv) >= 3 and argv[0] == "setup":
        return _setup(argv[1], argv[2])
    if len(argv) >= 2 and argv[0] == "cli":
        return _cli(argv[1], argv[2:])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
