"""``repro serve`` with the benchmark's span wrappers installed.

Usage: ``python3 perfbench/traced_serve.py ARTIFACT SPANS_JSON``.  Serves
ARTIFACT on an ephemeral loopback port like ``repro serve``, and writes
every span it recorded to SPANS_JSON when a client shuts it down.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import repro.cli  # noqa: E402

import spans  # noqa: E402

if __name__ == "__main__":
    artifact, out = sys.argv[1], sys.argv[2]
    tracer = spans.Tracer()
    tracer.install()
    try:
        code = repro.cli.main(["serve", artifact, "--port", "0"])
    finally:
        tracer.uninstall()
        tracer.rec.dump(out)
    sys.exit(code)
