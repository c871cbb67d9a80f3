"""Run one lpembed CLI command inside the benchmark's span wrappers.

usage: python3 bench/launcher.py SPANS_OUT ARG...

ARG... are the arguments of the `lpembed` command. The spans of the command
are written to SPANS_OUT as JSON, also when it fails; the exit code is the
command's own. lpembed must be importable (the benchmark sets PYTHONPATH).
"""

import json
import sys

from tracing import Tracer


def main(argv) -> int:
    spans_out, args = argv[0], argv[1:]
    from lpembed import cli

    tracer = Tracer()
    tracer.install()
    try:
        return cli.main(args)
    finally:
        tracer.uninstall()
        with open(spans_out, "w", encoding="utf-8") as fh:
            json.dump({"spans": [s.to_json() for s in tracer.spans]}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
