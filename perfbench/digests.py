#!/usr/bin/env python3
"""Record the stdout SHA-256 of every pool member in digests.json.

    python3 perfbench/digests.py

Runs each invocation a workload can produce once, checks its output counts
(exit status, traceback, line count or sum of multiplicities) and stores the
digest of its stdout. Run it only at a commit whose output is trusted: the
benchmark then fails any invocation whose bytes differ.
"""

import json
import sys
import tempfile
from pathlib import Path

import run


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    spec = run.spec()
    digests = {}
    with tempfile.TemporaryDirectory(dir=run.HERE, prefix=".run-") as tmp:
        for workload in spec["workloads"].values():
            for rung in workload["rungs"]:
                for inv in run.rung_invocations(rung):
                    if inv.check not in ("character", "lines"):
                        continue
                    out = run.launch(run.cli_command(inv.args), run.keeps_text(inv),
                                     Path(tmp) / "stderr")
                    inv.digest = out.digest
                    error = run.output_error(inv, out)
                    if error is not None:
                        print(f"{inv.key}: {error}", file=sys.stderr)
                        return 1
                    digests[inv.key] = out.digest
                    print(f"{out.digest}  {inv.key}  ({out.wall:.2f} s)")
    (run.HERE / "digests.json").write_text(
        json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
