"""Launch ``repro serve`` with service-layer spans installed.

    python3 perfbench/serve_traced.py --spans-out FILE -- --store DIR ...

Installs the wrappers from ``spans.ServiceTracer``, then calls the same
entry point as ``python -m repro serve`` with the arguments after ``--``.
When the server exits (SIGINT) the spans are written to ``FILE``.  Pool
workers are spawned and re-import this module as ``__mp_main__``, so all
work happens under the ``__main__`` guard.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


def main(argv: list[str]) -> int:
    import common
    import spans

    if len(argv) < 3 or argv[0] != "--spans-out" or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    spans_out, serve_args = argv[1], argv[3:]
    common.use_program_sources()
    tracer = spans.ServiceTracer()
    tracer.install()
    from repro.__main__ import main as repro_main

    try:
        return repro_main(["serve", *serve_args])
    finally:
        tracer.dump(spans_out)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
