"""Run one ``uprop`` CLI command for the ``cli`` workload.

Usage: python3 perfbench/cli_child.py (--probe FILE | --spans FILE) -- <uprop arguments>

``--probe`` samples the machine-speed probe for the whole command, the
import of ``uprop.cli`` included, and writes its report to FILE.
``--spans`` installs the tracer instead, records the import of
``uprop.cli`` as the ``cli.import`` span and writes the spans to FILE.
Either way the process exits with the command's exit code.
"""

import sys
from time import perf_counter


def main(argv):
    if len(argv) < 3 or argv[0] not in ("--probe", "--spans") or argv[2] != "--":
        sys.exit(__doc__.split("\n\n")[1])
    mode, out, cli_args = argv[0], argv[1], argv[3:]
    if mode == "--probe":
        import json
        from probe import SpeedProbe
        probe = SpeedProbe()
        probe.start()
        try:
            import uprop.cli
            return uprop.cli.main(cli_args)
        finally:
            probe.stop()
            with open(out, "w") as fh:
                json.dump(probe.report(), fh)
    from tracer import Tracer
    start = perf_counter()
    import uprop.cli
    tracer = Tracer()
    tracer.record("cli.import", start, perf_counter())
    tracer.install()
    try:
        return uprop.cli.main(cli_args)
    finally:
        tracer.uninstall()
        tracer.dump(out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
