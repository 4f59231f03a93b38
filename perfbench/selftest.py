#!/usr/bin/env python3
"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

For every workload, runs the benchmark twice for one second: once clean,
where every op must pass its check, and once with `--inject-fault`, which
corrupts one op's answer; that op must be counted in `failed` and the run
must report `"correct": false`. Exits non-zero if any check is not met.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["query", "separate", "train", "stream"]
INJECTED_OP = 5


def run(workload, extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", "0"] + extra
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def main():
    ok = True
    for workload in WORKLOADS:
        clean = run(workload, [])
        faulty = run(workload, ["--inject-fault", str(INJECTED_OP)])
        clean_ok = clean is not None and clean["correct"] and clean["failed"] == 0
        fault_ok = (faulty is not None and not faulty["correct"]
                    and faulty["failed"] == 1)
        print("%-9s clean run: %s   injected wrong answer counted as failed: %s"
              % (workload, "ok" if clean_ok else "FAIL", "ok" if fault_ok else "FAIL"))
        ok = ok and clean_ok and fault_ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
