"""Run the coapprox CLI with the benchmark's tracer installed.

Usage: python perfbench/cli_child.py SPAN_FILE SUBCOMMAND [FLAGS...]
The span file is written when the command returns; the exit code is the CLI's.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import coapprox.cli  # noqa: E402  (imported before install, so every module is patched)
from tracer import Tracer  # noqa: E402


def main() -> int:
    tracer = Tracer()
    tracer.install()
    tracer.question_id = 0
    try:
        return coapprox.cli.main(sys.argv[2:])
    finally:
        tracer.restore()
        tracer.write(Path(sys.argv[1]))


if __name__ == "__main__":
    sys.exit(main())
