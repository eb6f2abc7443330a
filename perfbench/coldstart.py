"""Cold start of the ``build`` workload, timed by its parent.

Starts the interpreter, imports ``repro`` and generates both graphs,
then prints ``ready``.  Usage: ``python3 perfbench/coldstart.py SEED``.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import repro  # noqa: E402

import inputs  # noqa: E402

if __name__ == "__main__":
    seed = int(sys.argv[1])
    graphs = [repro.Graph(inputs.BUILD_N, inputs.build_chords_edges(seed)),
              repro.Graph(inputs.BUILD_N, inputs.build_er_edges(seed))]
    print("ready", sum(g.m for g in graphs), flush=True)
