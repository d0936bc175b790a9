"""The traced ``repro serve`` child of ``http_closed_c2``.

Installs the boundary wrappers in this process, then hands over to
``repro.cli.main(["serve", ...])`` — the code path the untraced child
(``python -m repro serve``) takes — and writes the recorded spans as
JSONL once the server has shut down on SIGINT.
"""

from __future__ import annotations

import argparse
import sys


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trace-dump", required=True, metavar="PATH",
                        help="where to write the spans when the server stops")
    args, serve_args = parser.parse_known_args(argv)

    import repro.cli
    from bench_e2e.tracing import BoundaryTracer, dump_jsonl

    tracer = BoundaryTracer()
    tracer.install()
    try:
        return repro.cli.main(serve_args)
    finally:
        tracer.uninstall()
        dump_jsonl(tracer.spans, args.trace_dump)


if __name__ == "__main__":
    sys.exit(main())
