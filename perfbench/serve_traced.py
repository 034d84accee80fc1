"""``repro serve`` under the layer tracer (the traced ``service_mix`` run).

    python3 perfbench/serve_traced.py SPANS.json --port 0 --max-running 2

Installs :class:`perfbench.layers.Tracer`, runs the ``serve`` command of
the repository's CLI with the remaining arguments, and writes the
server's spans to ``SPANS.json`` once the server is interrupted.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from repro import cli  # noqa: E402

from perfbench.layers import Tracer  # noqa: E402


def main() -> int:
    out, args = sys.argv[1], sys.argv[2:]
    tracer = Tracer().install()
    try:
        return cli.main(["serve", *args])
    finally:
        tracer.uninstall()
        tracer.dump(out)


if __name__ == "__main__":
    sys.exit(main())
