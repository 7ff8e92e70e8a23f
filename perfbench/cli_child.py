"""One `irlap` CLI invocation with boundary tracing installed.

Usage (irlap importable, e.g. PYTHONPATH=src):
    python3 perfbench/cli_child.py SPANS_OUT ITEM_ID <irlap arguments...>

Behaves like `python3 -m irlap.cli <irlap arguments...>` and, when the
command returns, writes its spans to SPANS_OUT.
"""

import sys

import irlap.cli

import tracer


def main() -> int:
    spans_out, item = sys.argv[1], sys.argv[2]
    tr = tracer.Tracer()
    tr.item = item
    tr.install()
    try:
        return irlap.cli.main(sys.argv[3:])
    finally:
        tr.uninstall()
        tr.dump(spans_out)


if __name__ == "__main__":
    sys.exit(main())
