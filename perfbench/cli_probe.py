"""Run the carterlink CLI as ``python -m carterlink.cli`` would, and report
when the import of ``carterlink.cli`` and the call of its ``main`` started
and ended.

The three CLOCK_MONOTONIC time stamps go to the end of stderr after
``PROBE_MARK``; stdout is the CLI's own.  Traced runs of the ``cli_oneshot``
workload use this in place of ``-m carterlink.cli``.

    python3 perfbench/cli_probe.py system "E6(a1)"
"""

import json
import sys

from spans import now

PROBE_MARK = "\nperfbench-probe "


def main() -> int:
    t_import = now()
    import carterlink.cli

    t_main = now()
    try:
        code = carterlink.cli.main(sys.argv[1:])
    except SystemExit as e:  # argparse rejects bad usage this way
        code = e.code
    t_done = now()
    sys.stdout.flush()
    sys.stderr.write(PROBE_MARK + json.dumps([t_import, t_main, t_done]) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
