"""Run the ``repro.service`` daemon for the ``serve_serial`` workload.

    python3 perfbench/daemon.py --state-dir DIR --ready-file FILE \
        --designs PRESENT,TDEA [--trace]

Builds the named designs, starts the stock ``ServiceApp`` (SIGTERM
drains and exits), and writes its base URL to ``--ready-file`` once it
accepts connections.  With ``--trace`` the per-layer wrappers of
``tracer.py`` are installed first; their numbers are served by
``GET /metrics`` with the rest of the obs registry.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--state-dir", required=True)
    parser.add_argument("--ready-file", required=True)
    parser.add_argument("--designs", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    if args.trace:
        import tracer

        tracer.install()
    from repro.bench.designs import build_design
    from repro.service.app import ServiceApp

    for name in args.designs.split(","):
        build_design(name)

    class App(ServiceApp):
        async def start(self) -> None:
            await super().start()
            tmp = f"{args.ready_file}.tmp"
            Path(tmp).write_text(self.base_url + "\n")
            os.replace(tmp, args.ready_file)

    return App(args.state_dir).run()


if __name__ == "__main__":
    sys.exit(main())
