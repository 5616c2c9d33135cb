#!/usr/bin/env python3
"""Self-test of the benchmark: determinism, seed sensitivity, corruption.

Run from the repository root:

    python3 perfbench/test_bench.py

For each workload, on a small op window:
  * two runs of one seed print the same sim_digest and exit 0;
  * a run of another seed prints a different digest;
  * a traced run of the first seed passes (the binary itself fails when the
    traced and untraced digests differ);
  * a run that flips one delivered payload byte exits non-zero with
    "correct": false.
Exits 0 when every check passes.
"""
import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SMALL = {
    "eager_flood": ["--warmup-ops", "1000", "--window-ops", "5000", "--chunk-ops", "1000"],
    "bulk_pull": ["--warmup-ops", "20", "--window-ops", "200", "--chunk-ops", "20"],
    "rpc_fanin": ["--warmup-ops", "200", "--window-ops", "2000", "--chunk-ops", "500"],
}


def bench(workload, seed, trace=0, extra=()):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "0.1",
           "--trace", str(trace)] + SMALL[workload] + list(extra)
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    digests = re.findall(r"sim_digest (0x[0-9a-f]+)", proc.stdout)
    return proc.returncode, result, digests


def main():
    failures = []

    def check(ok, what):
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            failures.append(what)

    for w in SMALL:
        rc1, r1, d1 = bench(w, 7)
        rc2, r2, d2 = bench(w, 7)
        check(rc1 == 0 and rc2 == 0 and r1["correct"] and r2["correct"],
              w + ": seed 7 runs pass")
        check(d1 != [] and d1 == d2, w + ": same seed, same digest")
        rc3, _, d3 = bench(w, 8)
        check(rc3 == 0 and d3 != [] and d3 != d1, w + ": other seed, other digest")
        rc4, r4, d4 = bench(w, 7, trace=1)
        check(rc4 == 0 and r4["correct"] and len(d4) == 2 and d4[0] == d4[1] == d1[0],
              w + ": traced run reproduces the untraced digest")
        rc5, r5, _ = bench(w, 7, extra=["--corrupt-op", "100"])
        check(rc5 != 0 and r5 is not None and not r5["correct"] and r5["failed"] > 0,
              w + ": a flipped payload byte fails the run")
    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
