"""Traced server launcher: ``repro.service.server.run_server`` under spans.

Usage::

    python3 perfbench/launcher.py --spans OUT.json --journal-dir DIR [--shards 4] [-m 16]

Wraps the server's calls into the solver, digest and journal layers
(each name where the server looks it up), serves exactly like
``repro.cli serve --journal-dir DIR`` with the other options at their
defaults, and on drain (SIGTERM) writes the span totals to ``OUT.json``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.dont_write_bytecode = True
ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench.spans import Tracer  # noqa: E402

#: (module, attribute owner path, span name) of every wrapped call.
SERVER_SPANS = (
    ("repro.offline.streaming", "StreamingSolver.append", "streaming.append"),
    ("repro.service.server", "digest_value", "digest"),
    ("repro.runtime.journal", "RunJournal.append", "journal.append"),
    ("repro.runtime.journal", "RunJournal.flush", "journal.flush"),
)


def install(tracer: Tracer) -> None:
    import importlib

    for module_name, path, span in SERVER_SPANS:
        owner = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        tracer.wrap(owner, attr, span)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--spans", required=True)
    ap.add_argument("--journal-dir", required=True)
    ap.add_argument("--shards", type=int, default=4)
    ap.add_argument("-m", type=int, default=8)
    args = ap.parse_args(argv)

    from repro.service.server import ServerConfig, run_server

    tracer = Tracer()
    install(tracer)
    config = ServerConfig(
        shards=args.shards, num_servers=args.m, journal_dir=args.journal_dir
    )
    code = run_server(config)
    Path(args.spans).write_text(json.dumps(tracer.snapshot()))
    return code


if __name__ == "__main__":
    sys.exit(main())
