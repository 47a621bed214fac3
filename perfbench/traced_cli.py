"""Run the typical-clt CLI with the outside-in tracer installed.

Usage: python3 perfbench/traced_cli.py SPANS_JSON CLI_ARG...

Runs `typical_clt.cli.main(CLI_ARG...)` with the package's public
functions wrapped (see tracer.py), writes the spans and counters to
SPANS_JSON when the command ends, and exits with the command's code.
"""

import sys

from tracer import Tracer, install


def main() -> int:
    if len(sys.argv) < 3:
        print(__doc__, file=sys.stderr)
        return 2
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    traced_main = install(tracer)
    code = None
    try:
        code = traced_main(argv)
    finally:
        tracer.dump(spans_path, exit_code=code)
    return code


if __name__ == "__main__":
    sys.exit(main())
