"""Record the exit codes and stdout digests the benchmark checks against.

    python3 perfbench/record.py

Runs every byte-stable request once with ``--no-cache`` and rewrites
``expected.json``.  Rerun it only for a change that is meant to alter
CLI output; the benchmark otherwise counts any different byte as a
failed request.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "src" / "dslice" / "data"
EXPECTED = Path(__file__).resolve().parent / "expected.json"
MODULE_LINE_PREFIXES = ("module order:", "splitting verdict:")


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from dslice import cli, default_registry, replay_certificate, resolve_hash

    requests, certs = {}, {}
    for rid, argv in workloads.cli_requests(DATA) + workloads.oracle_requests(DATA):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(list(argv) + ["--no-cache"])
        requests[rid] = {"exit": code, "sha256": workloads.digest(out.getvalue())}
        certs[rid] = out.getvalue()
        print(f"{rid}: exit {code}", file=sys.stderr)
    for name in ("946", "r-rr"):
        ok = replay_certificate(json.loads(certs[f"certify {name} json"]),
                                resolve_hash, registry=default_registry())
        requests[f"replay {name}"] = {
            "exit": 0 if ok else 1,
            "sha256": workloads.digest(workloads.replay_output(ok)),
        }
    hypotheses = json.loads(certs["certify 946 json"])["hypotheses"]
    expected = {
        "requests": requests,
        "module_lines": [h for h in hypotheses if h.startswith(MODULE_LINE_PREFIXES)],
    }
    EXPECTED.write_text(json.dumps(expected, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
