"""Run one wavepower CLI stage with its library calls traced.

Usage (with src on PYTHONPATH):

    python3 bench/traced_stage.py TRACE_JSON STAGE [wavepower flags ...]

Behaves like `python -m wavepower.cli STAGE ...` and also writes the
stage's spans and counters to TRACE_JSON when it ends.
"""

import sys

from tracer import Tracer
from wavepower import cli


def main():
    trace_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        return cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.dump(trace_path)


if __name__ == "__main__":
    sys.exit(main())
