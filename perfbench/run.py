"""Layered benchmark of the toric-cartier package.

    python3 perfbench/run.py --workload closure|lattice_points|sweep|all
                             [--seed N] [--seconds S] [--trace 0|1] [--smoke]

Drives the package only through its public entry points: the CLI's
`main` for the cold workloads, one freshly forked process per operation
from a parent that has only imported the package, and `cli.run_command`
in one long-lived process for the warm sweep.  A single process runs the
closed loop, with at most one child process at a time.

Without tracing it prints every end-to-end metric named in
BENCHMARK.json; with `--trace 1` it runs one untraced and one traced
pass and prints every per-layer metric instead.  The last line of
standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  The exit code is 1 when any
operation gave a wrong answer, and 2 when the package source is missing.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import check
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
WORKLOADS = ("closure", "lattice_points", "sweep")
SETUP_REPEATS = 7
# a cold operation runs again, in later rounds of the pass, until its runs
# add up to REPEAT_BUDGET_S or it has run MAX_REPEATS times
REPEAT_BUDGET_S = 1.5
MAX_REPEATS = 25
CHILD_TIMEOUT_S = 170
HASH_SEED = "0"


class HarnessError(Exception):
    """The benchmark itself could not measure correctly."""


# ------------------------------------------------------------- children

def _rss_mb():
    """Current resident set of this process."""
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20


def in_child(fn, *args):
    """Run fn(*args) in a forked child and return its JSON-able result
    with the child's peak resident set in MB."""
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # pragma: no cover - child
        os.close(read_fd)
        status = 0
        try:
            signal.alarm(CHILD_TIMEOUT_S)
            data = json.dumps(fn(*args)).encode()
        except BaseException:
            traceback.print_exc()
            data, status = b"", 1
        with os.fdopen(write_fd, "wb") as out:
            out.write(data)
        sys.stderr.flush()
        os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as inp:
        data = inp.read()
    _, status, usage = os.wait4(pid, 0)
    if status != 0 or not data:
        raise HarnessError(f"child process failed with status {status} in {fn.__name__}")
    return json.loads(data), usage.ru_maxrss / 1024


def _cache_counts(caches):
    """[hits, misses, entries] per cache."""
    counts = {}
    for name, fn in caches.items():
        info = fn.cache_info()
        counts[name] = [info.hits, info.misses, info.currsize]
    return counts


def _timed_call(call, command):
    """Run one package call; the result records its exit code, the error
    class and stage of a failure, and the answer's summary."""
    from toric_cartier.errors import ToricError

    res = {"command": command, "exit": None, "error": None, "stage": None, "summary": None}
    start = time.perf_counter()
    try:
        payload, res["exit"] = call()
    except Exception as exc:
        res["seconds"] = time.perf_counter() - start
        res["error"] = type(exc).__name__
        res["stage"] = check.failure_stage(exc)
        res["exit"] = 2 if isinstance(exc, ToricError) else None  # the CLI's exit code
        return res
    res["seconds"] = time.perf_counter() - start
    res["summary"] = check.summarize(command, json.loads(payload))
    return res


def cold_op(op, trace):
    """One CLI command in this (freshly forked) process."""
    from toric_cartier import cli

    cold = spans.cached_entries() == 0
    caches = spans.public_caches()
    rec = spans.install() if trace else None
    gc.collect()  # the collector's counts would otherwise depend on what the parent did before forking
    failure = {}
    run_command = cli.run_command

    def catching(*args, **kwargs):
        try:
            return run_command(*args, **kwargs)
        except Exception as exc:
            failure["error"] = type(exc).__name__
            failure["stage"] = check.failure_stage(exc)
            raise

    cli.run_command = catching
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(op.argv())
    except Exception:
        code = None
    seconds = time.perf_counter() - start
    res = {"command": op.command, "key": op.key, "exit": code, "seconds": seconds, "cold": cold,
           "error": failure.get("error"), "stage": failure.get("stage"),
           "stderr": err.getvalue()[-500:], "summary": None,
           "caches": _cache_counts(caches), "spans": rec.snapshot() if rec else None}
    if code in (0, 1) and failure.get("error") is None:
        res["summary"] = check.summarize(op.command, json.loads(out.getvalue()))
    return res


def sweep_pass(texts, probe_text, trace):
    """One pass of the sweep in this long-lived process; caches are
    never cleared.  Answers are checked after the timed loop."""
    from toric_cartier import cli, instance

    caches = spans.public_caches()
    rec = spans.install() if trace else None
    gc.collect()
    rss_before = _rss_mb()
    instances = []
    start = time.perf_counter()
    for text in texts:
        t0 = time.perf_counter()
        tr, cfg = instance.build_triple(instance.parse_instance(text))
        results = {cmd: _timed_call(lambda cmd=cmd: cli.run_command(cmd, cfg, tr), cmd)
                   for cmd in ("enumerate", "test-ideal", "stable-image", "non-lc")}
        records = (results["enumerate"]["summary"] or {}).get("records", [])
        results["verify"] = [_timed_call(lambda g=g: cli.run_command("verify", cfg, tr, ideal_text=_ideal_text(g)),
                                         "verify") for g in records]
        instances.append({"seconds": time.perf_counter() - t0, "results": results, "tr": tr})
    probe = None
    if probe_text is not None:
        t0 = time.perf_counter()
        tr, cfg = instance.build_triple(instance.parse_instance(probe_text))
        probe = _timed_call(lambda: cli.run_command("cross-validate", cfg, tr), "cross-validate")
        probe["instance_seconds"] = time.perf_counter() - t0
    wall = time.perf_counter() - start
    rss_growth = _rss_mb() - rss_before
    span_snapshot = rec.snapshot() if rec else None
    cache_counts = _cache_counts(caches)
    ops = []
    for inst in instances:
        outcome = check.sweep_identities(inst["results"], inst["tr"].ambient.contains, inst["tr"].is_pair)
        for cmd, res in inst["results"].items():
            for r, o in (zip(res, outcome[cmd]) if cmd == "verify" else [(res, outcome[cmd])]):
                r["outcome"] = o
                ops.append(r)
    return {"wall": wall, "ops": ops, "probe": probe, "instance_seconds": [i["seconds"] for i in instances],
            "rss_growth_mb": rss_growth, "spans": span_snapshot, "caches": cache_counts}


def _ideal_text(gens):
    return " ".join("(" + ",".join(str(c) for c in g) + ")" for g in gens) if gens else "0"


# --------------------------------------------------------------- passes

def setup_probe(workload, seed, smoke):
    argv = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)] + (["--smoke"] if smoke else [])
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        raise HarnessError(f"setup probe failed:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def wants_repeat(op_runs):
    """Whether a cold operation runs again.  Short operations are
    repeated so that one burst of host load does not decide their
    median; the count grows smoothly as an operation gets shorter, so a
    noisy first run cannot halve it."""
    return (len(op_runs) < MAX_REPEATS
            and sum(r["seconds"] for r in op_runs) < REPEAT_BUDGET_S)


def run_cold_pass(workload, seed, trace, smoke, refs):
    """Each operation in a fresh fork; an operation counts at its median
    time over its runs, and every repeat must start cold and recompute
    exactly what the first run computed."""

    base_rss = _rss_mb()
    ops = workloads.cold_ops(workload, seed, smoke)
    runs = [[] for _ in ops]
    for _ in range(MAX_REPEATS):
        for op, op_runs in zip(ops, runs):
            if wants_repeat(op_runs):
                res, peak = in_child(cold_op, op, trace)
                op_runs.append(dict(res, peak_rss_mb=peak))
    results = []
    for op, op_runs in zip(ops, runs):
        for res in op_runs:
            if not res["cold"] or res["caches"] != op_runs[0]["caches"]:
                raise HarnessError(f"{op.key} did not start from cold package caches")
        outcomes = [check.classify(r, refs.get(op.key), refs.get(f"non-lc:{op.instance}")) for r in op_runs]
        results.append(dict(op_runs[0], instance=op.instance, repeats=len(op_runs),
                            seconds=statistics.median(r["seconds"] for r in op_runs),
                            peak_rss_mb=max(r["peak_rss_mb"] for r in op_runs),
                            outcome=next((o for o in outcomes if o != "ok"), "ok")))
    per_instance = {}
    for res in results:
        per_instance[res["instance"]] = per_instance.get(res["instance"], 0.0) + res["seconds"]
    return {"wall": sum(r["seconds"] for r in results), "ops": results,
            "instance_seconds": list(per_instance.values()),
            "peak_rss_mb": max(r["peak_rss_mb"] for r in results),
            "rss_growth_mb": max(r["peak_rss_mb"] for r in results) - base_rss,
            "spans": _merge_spans([r["spans"] for r in results]) if trace else None,
            "caches": _merge_caches([r["caches"] for r in results])}


def run_sweep_pass(texts, trace, smoke, refs):

    probe_text = None if smoke else workloads.corpus_text(workloads.SWEEP_PROBE.instance)
    res, peak = in_child(sweep_pass, [t for t in texts if t != probe_text], probe_text, trace)
    ops = res["ops"]
    if res["probe"] is not None:
        probe = res["probe"]
        probe["outcome"] = check.classify(probe, refs.get(workloads.SWEEP_PROBE.key))
        ops.append(probe)
        res["instance_seconds"].append(probe["instance_seconds"])
    res["peak_rss_mb"] = peak
    return res


def _merge_spans(snapshots):
    stats, counters = {}, {}
    for snap in snapshots:
        for name, (calls, busy, self_s) in snap["stats"].items():
            acc = stats.setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += busy
            acc[2] += self_s
        for key, value in snap["counters"].items():
            counters[key] = counters.get(key, 0) + value
    return {"stats": stats, "counters": counters}


def _merge_caches(per_op):
    merged = {}
    for caches in per_op:
        for name, (hits, misses, size) in caches.items():
            acc = merged.setdefault(name, [0, 0, 0])
            acc[0] += hits
            acc[1] += misses
            acc[2] = max(acc[2], size)
    return merged


# -------------------------------------------------------------- metrics

COMMAND_METRICS = {"enumerate": "enumerate_s", "test-ideal": "test_ideal_s", "stable-image": "stable_image_s",
                   "non-lc": "non_lc_s", "verify": "verify_s", "cross-validate": "cross_validate_s"}


def end_to_end(passes, setups):
    """Every end-to-end metric: (value, sample count, sample label)."""
    ops = [op for p in passes for op in p["ops"]]
    inst = [s for p in passes for s in p["instance_seconds"]]
    out = {
        "wall_s": (statistics.median(p["wall"] for p in passes), len(passes), "passes"),
        "ok_frac": (sum(op["outcome"] == "ok" for op in ops) / len(ops), len(ops), "operations"),
        "peak_rss_mb": (max(p["peak_rss_mb"] for p in passes), len(passes), "passes"),
        "instance_p50_s": (statistics.median(inst), len(inst), "instances"),
        "instance_p75_s": (statistics.quantiles(inst, n=4, method="inclusive")[2] if len(inst) > 1 else inst[0],
                           len(inst), "instances"),
        "setup_s": (statistics.median(s["setup_s"] for s in setups), len(setups), "fresh interpreters"),
    }
    for command, metric in COMMAND_METRICS.items():
        sums = [sum(op["seconds"] for op in p["ops"] if op["command"] == command) for p in passes]
        count = sum(op["command"] == command for op in ops)
        out[metric] = (statistics.median(sums), count, "operations")
    return out


def _derived(name, counters):
    def ratio(num, den):
        return num / den if den else 0.0

    if name == "polyhedral.minimal_lattice_points.cap_errors":
        return counters.get("polyhedral.minimal_lattice_points.raised.UnboundedMinimalSetError", 0)
    if name == "oracle.brute_force_enumerate.skipped":
        return counters.get("oracle.brute_force_enumerate.raised.PoolTooLargeError", 0)
    if name == "fixed_points.enumerate_fixed.sums_per_ideal":
        return ratio(counters.get("fixed_points.enumerate_fixed.sums", 0),
                     counters.get("fixed_points.enumerate_fixed.ideals_out", 0))
    if name == "oracle.brute_force_enumerate.fixed_per_candidate":
        return ratio(counters.get("oracle.brute_force_enumerate.fixed", 0),
                     counters.get("oracle.brute_force_enumerate.candidates", 0))
    return counters.get(name, 0)


STAT_INDEX = {"calls": 0, "busy_s": 1, "self_s": 2}


def per_layer(spec, traced, untraced, smoke):
    """Every per-layer metric from one traced pass; cache metrics of
    caches that no longer exist are left out."""
    stats, counters = traced["spans"]["stats"], traced["spans"]["counters"]
    values = {}
    for metric in spec["per_layer"]:
        name = metric["name"]
        head, _, stat = name.rpartition(".")
        if name == "trace.wall_s":
            values[name] = traced["wall"]
        elif name == "trace.overhead_s":
            values[name] = traced["wall"] - untraced["wall"]
        elif name == "process.rss_growth_mb":
            values[name] = traced["rss_growth_mb"]
        elif head.startswith("cache."):
            fn = head.split(".", 1)[1]
            if fn in traced["caches"]:
                hits, misses, size = traced["caches"][fn]
                if stat == "hit_ratio":
                    values[name] = hits / (hits + misses) if hits + misses else 0.0
                else:
                    values[name] = size
        elif head in spans.LAYERS and stat == "self_s":
            values[name] = sum(v[2] for k, v in stats.items() if k.startswith(head + "."))
        elif stat in STAT_INDEX:
            if head not in stats or (stats[head][0] == 0 and not smoke):
                raise HarnessError(f"expected span {head} never appeared")
            values[name] = stats[head][STAT_INDEX[stat]]
        else:
            values[name] = _derived(name, counters)
    return values


# ----------------------------------------------------------------- main

def run_workload(name, seed, seconds, trace, smoke):
    spec = json.loads(SPEC.read_text())
    refs = check.load_references()
    setups = [setup_probe(name, seed, smoke) for _ in range(1 if smoke else SETUP_REPEATS)]
    texts = setups[0]["texts"]
    print(f"# workload {name}, seed {seed}: {setups[0]['count']} instances, digest {setups[0]['digest']}")

    def one_pass(traced):
        if name == "sweep":
            return run_sweep_pass(texts, traced, smoke, refs)
        return run_cold_pass(name, seed, traced, smoke, refs)

    passes = []
    start = time.perf_counter()
    if trace:
        passes = [one_pass(False), one_pass(True)]
        untraced, traced = passes
    else:
        while True:
            pass_start = time.perf_counter()
            passes.append(one_pass(False))
            now = time.perf_counter()
            if smoke or now - start + (now - pass_start) > seconds:
                break
    ops = [op for p in passes for op in p["ops"]]
    failed = [op for op in ops if op["outcome"] != "ok"]
    wrong = [op for op in ops if op["outcome"] == "wrong"]
    for op in failed:
        where = f" at {op['stage']}" if op.get("stage") else ""
        print(f"# {op['outcome']}: {op.get('key', op['command'])} exit {op['exit']} {op.get('error') or ''}{where}")

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    if trace:
        values = per_layer(spec, traced, untraced, smoke)
        counted = {k: (v, 1, "traced pass") for k, v in values.items()}
    else:
        counted = end_to_end(passes, setups)
    metrics = {}
    for key, (value, n, label) in counted.items():
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise HarnessError(f"metric {key} is not a finite number: {value!r}")
        metrics[key] = {"value": value, "unit": units[key]}
        print(f"{key:55s} {value:14.6g} {units[key]:6s} n={n} {label}")
    return {"correct": not wrong, "attempted": len(ops), "failed": len(failed), "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one tiny operation per workload, for the benchmark's tests")
    args = parser.parse_args(argv)
    if not (SRC / "toric_cartier" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC.name}/; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace), args.smoke)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result = results[names[0]] if len(names) == 1 else results
    print(json.dumps(result))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    # string hashing decides set iteration order inside the package, and
    # with it how much work some operations do; pin it so every run
    # measures the same work
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, "PYTHONHASHSEED": HASH_SEED})
    sys.exit(main())
