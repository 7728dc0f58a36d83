"""Record the reference answers of every corpus operation as content.

    python3 perfbench/record_references.py

Runs each operation of the cold workloads, the smoke operations and the
sweep's probe in a fresh process and writes perfbench/corpus/references.json.
An operation that stops at a resource cap is recorded as `cap` with its
error class and stage; any other failure aborts the recording.
"""

import json
import sys

import check
import run
import workloads


def main():
    sys.path.insert(0, str(run.SRC))
    ops = {}
    for group in list(workloads.COLD_WORKLOADS.values()) + list(workloads.SMOKE_OPS.values()):
        for op in group:
            ops[op.key] = op
    ops[workloads.SWEEP_PROBE.key] = workloads.SWEEP_PROBE
    refs = {}
    for key, op in sorted(ops.items()):
        res, _ = run.in_child(run.cold_op, op, False)
        if res["error"] in check.CAP_ERRORS and res["exit"] in check.CAP_EXIT_CODES:
            refs[key] = {"outcome": "cap", "exit": res["exit"], "error": res["error"], "stage": res["stage"]}
        elif res["summary"] is not None and res["error"] is None:
            refs[key] = {"outcome": "ok", "exit": res["exit"], "summary": res["summary"]}
        else:
            raise SystemExit(f"{key}: exit {res['exit']} {res['error']}: {res['stderr']}")
        print(f"{key}: {refs[key]['outcome']} ({res['seconds']:.2f} s)", file=sys.stderr)
    lines = [f"{json.dumps(key)}: {json.dumps(refs[key], sort_keys=True)}" for key in sorted(refs)]
    check.REFERENCES.write_text("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    main()
