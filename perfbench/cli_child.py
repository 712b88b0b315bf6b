"""Traced stand-in for ``python3 -m gridobs.cli``.

    python3 perfbench/cli_child.py <launch> <result.json> reproduce fig3 --out DIR

<launch> is CLOCK_MONOTONIC when the parent spawned this process.  The
child imports gridobs.cli, wraps the traced functions, runs the command
through the wrapped ``cli.main`` and writes its spans and its import time to
<result.json>.  It exits with the command's exit code.
"""

from __future__ import annotations

import json
import sys
import time

from spans import TRACED, Tracer


def main(argv):
    launch, result_path, cli_args = float(argv[0]), argv[1], argv[2:]
    import gridobs.cli
    import_s = time.clock_gettime(time.CLOCK_MONOTONIC) - launch
    tracer = Tracer()
    tracer.op = cli_args[1] if len(cli_args) > 1 else cli_args[0]
    absent = tracer.install({mod: sys.modules[f"gridobs.{mod}"] for mod, _ in TRACED})
    try:
        code = gridobs.cli.main(cli_args)
    finally:
        tracer.restore()
        with open(result_path, "w") as f:
            json.dump({"import_s": import_s, "absent": absent, **tracer.dump()}, f)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
