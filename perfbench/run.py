#!/usr/bin/env python3
"""CPU-time benchmark of softdecomp, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload gallery-widths --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 50

A run builds the workload's ops from the seed, then runs passes over
them until the next pass would end past ``--seconds`` of wall time.
Each op is timed in CPU seconds (``time.process_time``) and checked
outside the timed region.  Between two ops a fixed reference job is
timed too, and every time the benchmark reports is normalized by it
(see ``normalized``), so that the host's changing speed cancels out.
With ``--trace 0`` the last line of standard output is a JSON object
with the end-to-end metrics; with ``--trace 1`` passes alternate
between untraced and traced, the layers are wrapped during the traced
ones, the spans are written to ``perfbench/out/`` and the JSON object
holds the per-layer metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import json
import pathlib
import resource
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("gallery-widths", "sql-answers")
SETUP_REPEATS = 6  # extra processes that only set up, for the setup_s median
SETUP_REFERENCES = 5  # reference timings after set-up, for its normalization
# reference_work's CPU seconds on the host the benchmark was written on
# (a 2-vCPU Xeon VM, CPython 3.11): a normalized time reads as CPU
# seconds on that host at its usual speed.
REFERENCE_S = 0.025
MAX_WALL_S = 150  # no new pass starts after this, whatever --seconds says


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_package():
    """Import softdecomp from this checkout's src/, or exit with status 1."""
    src = ROOT / "src"
    if not (src / "softdecomp" / "__init__.py").is_file():
        sys.exit(f"error: no softdecomp package under {src}")
    sys.path.insert(0, str(src))
    import softdecomp

    if pathlib.Path(softdecomp.__file__).resolve().parent != src / "softdecomp":
        sys.exit(f"error: imported softdecomp from {softdecomp.__file__}, not {src}")


def cache_clear():
    """The bag layer's cache reset, or None once a refactor drops the cache.

    The cache is keyed by hypergraph value, so without the reset later
    passes would time warm results.  Look it up before the tracer wraps
    the function: the wrapper does not carry ``cache_clear``.
    """
    from softdecomp import bags

    return getattr(getattr(bags, "_component_entries", None), "cache_clear", None)


def reference_work():
    """A fixed pure-Python job of about 25 ms: small-int bitmask unions,
    set and dict traffic and a sort, the kind of work the program does.
    It calls nothing in the package, so a change to the program leaves
    its time alone."""
    masks = [(i * 2654435761) & 0xFFFFF for i in range(1, 300)]
    seen = set()
    counts = {}
    for a in masks:
        for b in masks:
            u = a | b
            if u not in seen:
                seen.add(u)
                counts[u & 0xFF] = counts.get(u & 0xFF, 0) + 1
    return len(sorted(seen)) + len(counts)


def time_reference():
    start = time.process_time()
    reference_work()
    return time.process_time() - start


def settle(clear):
    """What runs between two ops, outside the timed region: reset the bag
    cache, collect garbage, then time the reference job."""
    if clear is not None:
        clear()
    gc.collect()
    return time_reference()


def normalized(cpu_s, ref_s):
    """CPU seconds scaled by how fast the host ran the reference job
    around them.  The host's speed swings by a third over seconds and
    minutes, in one process and between processes; the swings move the
    reference job and the op alike, so their ratio holds still."""
    return cpu_s / ref_s * REFERENCE_S


def run_pass(workload, pass_no, records, clear, ref, tracer=None):
    """Run every op once; append one record per op to ``records``.

    ``ref`` is the reference time measured just before the first op; the
    one measured after the last op is returned for the next pass.  An
    op's ``ref_s`` is the mean of the reference times just before and
    just after it.
    """
    for op in workload.ops:
        ctx = {}
        error = None
        op_id = len(records)
        if tracer is not None:
            tracer.begin_op(op_id)
            tracer.recording = True
        start = time.process_time()
        try:
            op.run(ctx)
        except Exception as exc:  # an op failure is a result, not a crash
            error = exc
        cpu = time.process_time() - start
        if tracer is not None:
            tracer.recording = False
        try:
            failure = op.check(ctx, error)
        except Exception as exc:
            failure = f"check raised {type(exc).__name__}: {exc}"
        after = settle(clear)
        records.append({"op": op_id, "pass": pass_no, "traced": tracer is not None,
                        "label": op.label, "case": op.case, "cpu_s": cpu,
                        "ref_s": (ref + after) / 2, "failure": failure})
        ref = after
    return ref


def normalized_setup(setup_cpu):
    """Set-up CPU seconds, normalized by the median of a few reference
    timings taken right after set-up."""
    refs = [time_reference() for _ in range(SETUP_REFERENCES)]
    return normalized(setup_cpu, statistics.median(refs))


def setup_seconds(args, own):
    """Median normalized CPU seconds from process start to the first op,
    over this process and SETUP_REPEATS fresh ones that only set up."""
    samples = [own]
    cmd = [sys.executable, str(pathlib.Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=60, check=True)
        samples.append(float(done.stdout.split()[-1]))
    return statistics.median(samples)


def end_to_end(records):
    """Each op's time is the median over the passes of its normalized
    CPU; a pass is the sum over its ops."""
    per_op = {}
    for r in records:
        per_op.setdefault(r["label"], []).append(normalized(r["cpu_s"], r["ref_s"]) * 1e3)
    op_ms = [statistics.median(v) for v in per_op.values()]
    ok = sum(r["failure"] is None for r in records)
    return {
        "pass_cpu_s": (sum(op_ms) / 1e3, "s"),
        "op_cpu_ms.p50": (statistics.median(op_ms), "ms"),
        "op_cpu_ms.p90": (statistics.quantiles(op_ms, n=10)[8], "ms"),
        "ops_ok_ratio": (ok / len(records), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(records, rows, passes):
    """Layer times are normalized per op, with the op's reference time."""
    import tracer as tracing

    traced = sorted({r["pass"] for r in records if r["traced"]})
    scaled = {}
    for r in records:
        if r["traced"]:
            scale = normalized(1.0, r["ref_s"])
            scaled[r["op"]] = {key: value * scale if key[1].endswith("_ms") else value
                               for key, value in rows[r["op"]].items()}
    medians = tracing.median_per_pass(
        [[scaled[r["op"]] for r in records if r["pass"] == p] for p in traced])
    out = {}
    for layer, quantity, unit in tracing.METRICS:
        if (layer, quantity) in medians:
            out[f"{layer}.{quantity}"] = (medians[(layer, quantity)], unit)
    pass_s = {p: sum(normalized(r["cpu_s"], r["ref_s"]) for r in records if r["pass"] == p)
              for p in range(passes)}
    traced_s = statistics.median(pass_s[p] for p in traced)
    untraced_s = statistics.median(pass_s[p] for p in pass_s if p not in traced)
    out["trace.pass_cpu_s"] = (traced_s, "s")
    out["trace.overhead_cpu_s"] = (traced_s - untraced_s, "s")
    return out


def write_trace(args, records, rows, tracer):
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace-{args.workload}-seed{args.seed}.json.gz"
    ops = []
    for r in records:
        entry = dict(r)
        if r["traced"]:
            entry["layers"] = {f"{layer}.{q}": v for (layer, q), v in rows[r["op"]].items() if v}
        ops.append(entry)
    with gzip.open(path, "wt") as f:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "absent_layers": tracer.absent, "ops": ops, "spans": tracer.spans()}, f)
    return path


def run_one(args):
    import_package()
    import workloads

    workload = workloads.make(args.workload, args.seed)
    setup_own = normalized_setup(time.process_time())
    if args.setup_only:
        print(repr(setup_own))
        return 0

    clear = cache_clear()
    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
    records = []
    started = time.monotonic()
    passes = 0
    ref = settle(clear)
    try:
        while True:
            traced = tracer is not None and passes % 2 == 1
            if traced:
                tracer.install()
            pass_start = time.monotonic()
            try:
                ref = run_pass(workload, passes, records, clear, ref,
                               tracer if traced else None)
            finally:
                if traced:
                    tracer.uninstall()
            passes += 1
            now = time.monotonic()
            # Stop before a pass that would end past --seconds, so a run
            # lasts about --seconds whatever the pass length; a traced
            # run needs one untraced and one traced pass.
            if passes >= 1 + args.trace and 2 * now - pass_start - started > args.seconds:
                break
            if now - started >= MAX_WALL_S:
                break
        notes = workload.notes()
    finally:
        workload.close()

    failures = {}  # (case, standing) -> failed op runs, first failure
    for r in records:
        if r["failure"] is not None:
            key = (r["case"], workloads.is_standing(r["case"], r["failure"]))
            count, first = failures.get(key, (0, f"{r['label']}: {r['failure']}"))
            failures[key] = (count + 1, first)
    if args.trace:
        rows = tracer.per_op()
        metrics = per_layer(records, rows, passes)
        path = write_trace(args, records, rows, tracer)
        print(f"trace written to {path.relative_to(ROOT)}")
        for name in tracer.absent:
            print(f"layer {name}: absent")
    else:
        metrics = {"setup_s": (setup_seconds(args, setup_own), "s"),
                   **end_to_end(records)}
    print(f"workload {args.workload}, seed {args.seed}: {passes} passes of "
          f"{len(workload.ops)} ops, {len(records)} op runs")
    for (case, standing), (count, first) in sorted(failures.items()):
        tag = "standing defect" if standing else "NEW"
        print(f"failed ({tag}): {case}, {count} op runs, e.g. {first}")
    for line in notes:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    correct = all(standing for _, standing in failures)
    failed = sum(r["failure"] is not None for r in records)
    print(f"correct: {str(correct).lower()}, {failed} of {len(records)} op runs failed")
    result = {
        "correct": correct,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args):
    """Run every workload in its own process and print each result."""
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(pathlib.Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"== {name}: exit code {done.returncode}")
            return 1
        print(f"== {name}")
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
