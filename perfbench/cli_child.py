"""Run one beamlcp CLI command in a fresh process, with layer spans recorded.

    python3 perfbench/cli_child.py SPANS_JSON CLI_ARG...

The traced counterpart of ``python3 -m beamlcp.cli CLI_ARG...``: it also
times the import of ``beamlcp.cli`` and writes the spans to SPANS_JSON when
the command ends.  The exit code is the command's.
"""

import json
import sys

from tracing import Tracer


def main() -> int:
    spans_path, args = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    with tracer.span("cli.import"):
        import beamlcp.cli
    with tracer.installed(), tracer.span("cli.request"):
        code = beamlcp.cli.main(args)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"spans": tracer.spans, "missing": sorted(tracer.missing)}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
