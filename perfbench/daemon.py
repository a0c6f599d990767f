"""Run the serve daemon in a process of its own.

The benchmark starts this script as a child process, so its client
threads never share the daemon's interpreter lock::

    python3 perfbench/daemon.py --store graph.rsgs --checkpoint ck.npz \\
        --port-file port.txt [--grow --seed 7] \\
        [--shard-dir DIR --access-log access.jsonl]

With ``--grow`` it grows towards ``GROW_TARGET`` states, a target no
run reaches.  It serves until SIGTERM, drains, and exits 0.  With
``--shard-dir`` every serve and campaign layer is wrapped (see
``tracer.py``) and the spans are written to ``DIR/spans-<pid>.json``
on exit.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from tracer import Tracer, serve_patches  # noqa: E402

from repro.graph.store import GraphStore  # noqa: E402
from repro.serve.server import ServeConfig, run_server  # noqa: E402

GROW_TARGET = 10**6


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--store", required=True)
    parser.add_argument("--checkpoint", required=True)
    parser.add_argument("--port-file", required=True)
    parser.add_argument("--grow", action="store_true")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--shard-dir", default=None)
    parser.add_argument("--access-log", default=None)
    args = parser.parse_args(argv)

    graph = GraphStore.open(args.store).graph()
    config = ServeConfig(
        port=0,
        port_file=Path(args.port_file),
        checkpoint=Path(args.checkpoint),
        grow=args.grow,
        target_states=GROW_TARGET,
        seed=args.seed,
        access_log=Path(args.access_log) if args.access_log else None,
    )
    if args.shard_dir is None:
        return run_server(graph, config)
    tracer = Tracer(Path(args.shard_dir))
    try:
        with tracer.installed(serve_patches()):
            code = run_server(graph, config)
    finally:
        tracer.write_shard()
    return code


if __name__ == "__main__":
    sys.exit(main())
