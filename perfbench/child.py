"""Fresh-process probes started by run.py; not meant to be run by hand.

    child.py setup SRC CONFIG|-        import latspin.cli, parse CONFIG, print
                                       time.monotonic() at the end
    child.py trace SRC STATS ARGS...   run `latspin ARGS...` with every span
                                       installed, write the span stats to STATS

SRC is the source directory on PYTHONPATH; the probe exits non-zero when the
package was imported from anywhere else.
"""

import json
import os
import sys
import time


def _import_cli(src):
    from latspin import cli

    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        sys.exit(f"latspin was imported from {cli.__file__}, not from {src}")
    return cli


def main(argv):
    mode, cli = argv[0], _import_cli(argv[1])
    if mode == "setup":
        if argv[2] != "-":
            with open(argv[2]) as fh:
                cli.parse_config(json.load(fh))
        print(repr(time.monotonic()))
        return 0
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            code = cli.main(argv[3:])
        finally:
            tracer.uninstall()
        with open(argv[2], "w") as fh:
            json.dump(tracer.report(), fh)
        return code
    sys.exit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
