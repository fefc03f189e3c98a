"""Child processes the benchmark starts.

    python3 perfbench/child.py setup <workload> <seed>
        import oplax, build the workload's deck, print "ready"; the parent
        times this from spawn to that line, which is the workload's set-up.

    python3 perfbench/child.py trace-cli
        run ``oplax verify all --format json`` in process under the tracer,
        print its output, then one JSON line: exit code and trace snapshot.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys


def setup(name: str, seed: str) -> None:
    from workloads import WORKLOADS

    WORKLOADS[name].build(int(seed))
    print("ready", flush=True)


def trace_cli() -> None:
    from tracing import Tracer
    from workloads import VERIFY_ARGS

    from oplax import cli

    tracer = Tracer()
    tracer.install()
    out = io.StringIO()
    with tracer.operation(0, "op.cli"), contextlib.redirect_stdout(out):
        code = cli.run(list(VERIFY_ARGS))
    tracer.uninstall()
    sys.stdout.write(out.getvalue())
    print(json.dumps({"code": code, "trace": tracer.snapshot()}))


if __name__ == "__main__":
    if sys.argv[1:2] == ["setup"] and len(sys.argv) == 4:
        setup(sys.argv[2], sys.argv[3])
    elif sys.argv[1:] == ["trace-cli"]:
        trace_cli()
    else:
        sys.exit(__doc__)
