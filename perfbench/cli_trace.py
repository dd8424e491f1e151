"""Run the deltacasimir CLI with layer spans on.

    python3 perfbench/cli_trace.py STATS_JSON <deltacasimir arguments...>

Exits with the CLI's exit code and writes the span statistics of this
process to STATS_JSON.  Under ``--jobs N`` with N > 1 the worker processes
run wrapped code too, but their spans stay in the workers: only the spans of
this process (the cli layer) are written.
"""
import json
import sys
from pathlib import Path

import tracer

import deltacasimir.cli as cli

tr = tracer.Tracer()
with tracer.patched(tr, with_cli=True):
    code = cli.main(sys.argv[2:])
Path(sys.argv[1]).write_text(json.dumps(tracer.plain(tr.stats)))
sys.exit(code)
