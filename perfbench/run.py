"""Benchmark of ``scenevat report`` on seeded synthetic workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  Set-up generates the workload inputs from the seed and imports
the package, three times in fresh processes; ``setup_s`` is the median
CPU time.  Then a closed loop with one client runs one ``report`` op at a
time, each in a fresh child process with fresh output and feature-cache
directories, until the next op would end after ``--seconds``.  Every op's
outputs are checked, untimed, against the structure planted in the inputs.

With ``--trace 0`` the last line reports the end-to-end metrics: medians
over the ops, with times in CPU seconds.  With ``--trace 1`` untraced and
traced ops alternate and the last line reports per-layer metrics from the
traced ops, the wall-clock figures of the untraced ops, and the tracing
overhead (median traced minus median untraced ``wall_s``).  The lines
before it hold run metadata and per-op detail.  Intermediate files
live under ``.perfbench/`` and are deleted when the run ends, except the
spans of the last traced run of each workload.
"""

from __future__ import annotations

import argparse
import filecmp
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
sys.path.insert(0, HERE)

from workloads import WORKLOADS, read_vatf, report_args  # noqa: E402

BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
MIN_OPS = 2  # per kind of op
CHILD_TIMEOUT_S = 120
MST_RTOL = 1e-9
MIB = 1024 * 1024

# Workload checks beyond planted counts and permutations.
MST_CHECK = {"vat-all"}
RERUN_CHECK = {"audio-manifest"}

# Times are CPU seconds (user + sys of the process, all threads): on a
# shared VM the time the host takes the CPU away (steal) moves wall-clock
# medians of identical code by more than a third between runs.
E2E_UNITS = {
    "setup_s": "s",
    "cpu_s": "s",
    "records_per_cpu_s": "records/s",
    "peak_rss_mb": "MiB",
    "artifact_mb": "MiB",
    "counts_correct_frac": "frac",
}
# Wall-clock figures of the untraced ops.  They are reported, not gated:
# steal time moves them, and on some workloads a stage lasts milliseconds.
WALL_METRICS = {"wall_s": "s", "records_per_s": "records/s",
                "features_s": "s", "report_s": "s"}
OP_DETAIL = ("traced", "exit", "wall_s", "cpu_s", "features_s", "report_s",
             "peak_rss_mib", "artifact_mib", "cache_misses", "warm_cache_hits",
             "subsets_correct", "subsets")
LAYER_METRICS = {
    **WALL_METRICS,
    "audio.decode_wav.s": "s",
    "audio.resample.s": "s",
    "audio.resample.out_samples": "count",
    "audio.log_mel_mean.s": "s",
    "report.features_for_manifest.self_s": "s",
    "report.cache_hits": "count",
    "report.cache_misses": "count",
    "report.run_report.self_s": "s",
    "matrix.euclidean_dissim.s": "s",
    "matrix.check_dissim.calls": "count",
    "matrix.check_dissim.s": "s",
    "matrix.permute_matrix.s": "s",
    "vat.vat_order.s": "s",
    "vat.vat_order.calls": "count",
    "vat.odi_from.self_s": "s",
    "vat.write_pgm.s": "s",
    "vat.write_pgm.bytes": "bytes",
    "specvat.a_specvat_select_k.s": "s",
    "specvat.specvat.calls": "count",
    "specvat.spectral_embedding.self_s": "s",
    "specvat.local_scale_affinity.s": "s",
    "specvat.normalized_affinity.s": "s",
    "specvat.sym_eigen_topk.s": "s",
    "specvat.sym_eigen_topk.calls": "count",
    "cce.cce_count.s": "s",
    "cce.otsu_effectiveness.s": "s",
    "cce.otsu_threshold.calls": "count",
    "stacks.label_stack.s": "s",
    "stacks.stack_svg.s": "s",
    "stacks.stack_csv.s": "s",
    "vatf.read_vatf.s": "s",
    "vatf.write_vatf.s": "s",
    "vatf.write_vatf.bytes": "bytes",
    "vatf.atomic_write_text.s": "s",
    "manifest.read_manifest.s": "s",
    "trace_overhead_s": "s",
}


class SetupError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: str(BLAS_THREADS) for var in BLAS_ENV})
    env.pop("PYTHONPATH", None)
    return env


def run_child(args) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "op.py"), *args],
        cwd=ROOT, env=child_env(), capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S,
    )


def child_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def setup_once(workload, seed, in_dir) -> tuple[float, float]:
    """Wall and CPU seconds of one set-up in a fresh process."""
    cpu = child_cpu_s()
    start = time.perf_counter()
    proc = run_child(["setup", SRC, workload, str(seed), in_dir])
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise SetupError(f"set-up failed (exit {proc.returncode}):\n"
                         + proc.stderr[-2000:])
    return wall, child_cpu_s() - cpu


def run_op(op_dir, op_id, argv, trace, rerun_argv=None) -> dict:
    """Run one op in a child; returns its result dict (``exit`` None on crash)."""
    job = {"src": SRC, "argv": argv, "trace": trace, "op": op_id,
           "rerun_argv": rerun_argv,
           "result": os.path.join(op_dir, f"{op_id}.json")}
    job_path = os.path.join(op_dir, f"{op_id}.job.json")
    with open(job_path, "w", encoding="utf-8") as fh:
        json.dump(job, fh)
    try:
        proc = run_child(["op", job_path])
    except subprocess.TimeoutExpired:
        return {"exit": None, "error": f"timed out after {CHILD_TIMEOUT_S} s"}
    try:
        with open(job["result"], encoding="utf-8") as fh:
            result = json.load(fh)
    except (OSError, json.JSONDecodeError):
        result = {"exit": None}
    if result["exit"] != 0 and not result.get("error"):
        result["error"] = proc.stderr[-2000:]
    return result


def tree_bytes(path) -> int:
    total = 0
    for dirpath, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(dirpath, f)) for f in files)
    return total


def tree_files(path) -> set:
    return {os.path.relpath(os.path.join(d, f), path)
            for d, _, files in os.walk(path) for f in files}


def file_digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def mst_weight(path, cache) -> float:
    """Weight of the minimum spanning tree of a VATF distance matrix.

    Ops of one run read the same inputs, so the weight is cached by the
    file's digest and each op's file is still hashed.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import minimum_spanning_tree

    digest = file_digest(path)
    if digest not in cache:
        upper = csr_matrix(np.triu(read_vatf(path)))
        cache[digest] = float(minimum_spanning_tree(upper).sum())
    return cache[digest]


def check_outputs(workload, out_dir, mst_cache) -> tuple[list, int, int]:
    """Problems found, subsets with the planted count (and k), subsets analysed."""
    expected = WORKLOADS[workload]["expected"]
    with open(os.path.join(out_dir, "report.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    entries = {e["subset"]: e for e in report["subsets"]}
    problems = []
    if set(entries) != set(expected):
        problems.append(f"subsets {sorted(entries)}, expected {sorted(expected)}")
    correct = 0
    for name, entry in sorted(entries.items()):
        want = expected.get(name, {"count": None, "k": None})
        got = (entry["cluster_count"], entry.get("k"))
        if got == (want["count"], want["k"]):
            correct += 1
        else:
            problems.append(f"{name}: (count, k) = {got}, planted "
                            f"{(want['count'], want['k'])}")
        with open(os.path.join(out_dir, name, "ordering.json"), encoding="utf-8") as fh:
            ordering = json.load(fh)
        order = np.asarray(ordering["order"])
        n = entry["n"]
        if (order.shape != (n,) or len(ordering["link_dist"]) != n
                or not np.array_equal(np.sort(order), np.arange(n))):
            problems.append(f"{name}: ordering is not a permutation of {n} records")
        if workload in MST_CHECK:
            weight = mst_weight(os.path.join(out_dir, name, "dissim.vatf"), mst_cache)
            links = math.fsum(ordering["link_dist"])
            if not abs(links - weight) <= MST_RTOL * abs(weight):
                problems.append(f"{name}: link_dist sum {links!r} != MST weight "
                                f"{weight!r}")
    return problems, correct, len(entries)


def check_rerun(workload, res, out_dir, warm_dir) -> list:
    """Warm rerun on the same cache: every row from cache, identical artifacts."""
    records = WORKLOADS[workload]["records"]
    warm = res.get("warm")
    if warm is None or warm["exit"] != 0:
        return [f"warm rerun failed: {warm}"]
    problems = []
    if (warm["cache_hits"], warm["cache_misses"]) != (records, 0):
        problems.append(f"warm rerun: {warm['cache_hits']} cache hits, "
                        f"{warm['cache_misses']} misses, expected {records}, 0")
    files = tree_files(out_dir)
    if files != tree_files(warm_dir):
        problems.append("warm rerun wrote a different set of artifacts")
    differ = [f for f in sorted(files & tree_files(warm_dir))
              if not filecmp.cmp(os.path.join(out_dir, f),
                                 os.path.join(warm_dir, f), shallow=False)]
    if differ:
        problems.append(f"warm rerun changed {len(differ)} artifact(s): {differ[:5]}")
    return problems


def one_op(workload, run_dir, in_dir, index, trace, mst_cache) -> dict:
    op_id = f"op{index}"
    op_dir = os.path.join(run_dir, op_id)
    out_dir = os.path.join(op_dir, "out")
    cache_dir = os.path.join(op_dir, "cache")
    warm_dir = os.path.join(op_dir, "out_warm")
    rerun = (report_args(workload, in_dir, warm_dir, cache_dir)
             if workload in RERUN_CHECK else None)
    os.makedirs(op_dir)
    try:
        res = run_op(op_dir, op_id, report_args(workload, in_dir, out_dir, cache_dir),
                     trace, rerun)
        res["traced"] = trace
        res["artifact_mib"] = (tree_bytes(out_dir) + tree_bytes(cache_dir)) / MIB
        problems = []
        if res["exit"] != 0:
            problems.append(f"exit {res['exit']}: {res.get('error')}")
        try:
            found, res["subsets_correct"], res["subsets"] = check_outputs(
                workload, out_dir, mst_cache)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            found, res["subsets_correct"], res["subsets"] = (
                [f"outputs unreadable: {exc!r}"], 0, 0)
        problems += found
        res["warm_cache_hits"] = res.get("warm", {}).get("cache_hits", 0)
        if rerun is not None:
            problems += check_rerun(workload, res, out_dir, warm_dir)
        res["problems"] = problems
        return res
    finally:
        shutil.rmtree(op_dir, ignore_errors=True)


def tail_percentile(values) -> dict | None:
    """Highest percentile with at least ten samples beyond it, if any."""
    n = len(values)
    if n <= 10:
        return None
    pct = math.floor(100 * (n - 10) / n)
    return {"percentile": pct,
            "value": float(np.percentile(values, pct, method="inverted_cdf"))}


def median_of(ops, key, scale=None) -> float:
    """Median of ``r[key]`` (or ``scale / r[key]``) over the ops that have it."""
    values = [r[key] if scale is None else scale / r[key]
              for r in ops if r.get(key)]
    return statistics.median(values) if values else 0.0


def e2e_metrics(workload, ops, setup_cpu) -> dict:
    records = WORKLOADS[workload]["records"]
    ok = [r for r in ops if not r["problems"]] or ops
    subsets = sum(r["subsets"] for r in ops)
    return {
        "setup_s": statistics.median(setup_cpu),
        "cpu_s": median_of(ok, "cpu_s"),
        "records_per_cpu_s": median_of(ok, "cpu_s", records),
        "peak_rss_mb": median_of(ok, "peak_rss_mib"),
        "artifact_mb": median_of(ok, "artifact_mib"),
        "counts_correct_frac": (sum(r["subsets_correct"] for r in ops) / subsets
                                if subsets else 0.0),
    }


def layer_metrics(workload, ops) -> dict:
    """Medians over the traced ops; stage times and overhead from both kinds."""
    from tracer import layer_totals

    per_op = []
    for r in ops:
        if r["traced"] and "spans" in r:
            totals = layer_totals([tuple(s) for s in r["spans"]], r["counts"])
            totals["report.cache_misses"] = r["cache_misses"]
            totals["report.cache_hits"] = r["warm_cache_hits"]
            per_op.append(totals)
    out = {name: statistics.median([t.get(name, 0.0) for t in per_op] or [0.0])
           for name in LAYER_METRICS}
    plain = [r for r in ops if not r["traced"] and "wall_s" in r]
    out.update(wall_metrics(workload, plain))
    traced = [r["wall_s"] for r in ops if r["traced"] and "wall_s" in r]
    out["trace_overhead_s"] = (statistics.median(traced)
                               - statistics.median(r["wall_s"] for r in plain)
                               if traced and plain else 0.0)
    return out


def wall_metrics(workload, ops) -> dict:
    return {"wall_s": median_of(ops, "wall_s"),
            "records_per_s": median_of(ops, "wall_s", WORKLOADS[workload]["records"]),
            "features_s": median_of(ops, "features_s"),
            "report_s": median_of(ops, "report_s")}


def git_sha(root) -> str | None:
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip("\n").endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def blas_version(module) -> str | None:
    try:
        return module.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (AttributeError, KeyError, TypeError):
        return None


def metadata(args) -> dict:
    import scipy

    argv = WORKLOADS[args.workload]["args"]
    src_lines = 0
    for dirpath, _, files in os.walk(os.path.join(SRC, "scenevat")):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(dirpath, f), "rb") as fh:
                    src_lines += sum(1 for _ in fh)
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha(ROOT),
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "numpy_openblas": blas_version(np),
        "scipy_openblas": blas_version(scipy), "blas_threads": BLAS_THREADS,
        "report_threads": int(argv[argv.index("--threads") + 1])
        if "--threads" in argv else 1,
        "src_scenevat_lines": src_lines, "load": "closed loop, 1 client",
    }


def measure(args, run_dir) -> tuple[list, list]:
    """Set-up times and op results of one run."""
    in_dir = os.path.join(run_dir, "in")
    setups = []
    for i in range(SETUP_REPEATS):
        target = in_dir if i == 0 else os.path.join(run_dir, f"setup{i}")
        setups.append(setup_once(args.workload, args.seed, target))
        if target != in_dir:
            shutil.rmtree(target)

    ops, mst_cache, cycles = [], {}, []
    start = time.perf_counter()
    kinds = (False, True) if args.trace else (False,)
    while True:
        began = time.perf_counter()
        trace = kinds[len(ops) % len(kinds)]
        ops.append(one_op(args.workload, run_dir, in_dir, len(ops), trace, mst_cache))
        cycles.append(time.perf_counter() - began)
        elapsed = time.perf_counter() - start
        if (len(ops) >= MIN_OPS * len(kinds)
                and len(ops) % len(kinds) == 0
                and elapsed + statistics.median(cycles) * len(kinds) > args.seconds):
            break
    return setups, ops


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "scenevat", "cli.py")):
        print(f"error: no scenevat sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2

    # On SIGTERM, unwind: subprocess.run kills and reaps the running child,
    # and the run directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    run_dir = os.path.join(WORK, f"{args.workload}-s{args.seed}-{os.getpid()}")
    os.makedirs(run_dir)
    try:
        setups, ops = measure(args, run_dir)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    failed = [r for r in ops if r["problems"]]
    for i, r in enumerate(ops):
        for p in r["problems"]:
            print(f"op{i}: {p}", file=sys.stderr)
    walls = [r["wall_s"] for r in ops if "wall_s" in r]
    print(json.dumps({"meta": metadata(args)}))
    print(json.dumps({"detail": {
        "setup_wall_s": [wall for wall, _ in setups],
        "setup_cpu_s": [cpu for _, cpu in setups],
        "failed_frac": len(failed) / len(ops),
        "wall_s_samples": len(walls),
        "wall_s_tail": tail_percentile(walls),
        **wall_metrics(args.workload, [r for r in ops if not r["traced"] and "wall_s" in r]),
        "ops": [{k: r.get(k) for k in OP_DETAIL} for r in ops],
    }}))
    if args.trace:
        values, units = layer_metrics(args.workload, ops), LAYER_METRICS
        spans = {f"op{i}": r["spans"] for i, r in enumerate(ops) if "spans" in r}
        with open(os.path.join(WORK, f"trace-{args.workload}.json"), "w",
                  encoding="utf-8") as fh:
            json.dump({"fields": ["id", "name", "start", "end", "parent", "op"],
                       "ops": spans}, fh)
    else:
        values, units = (e2e_metrics(args.workload, ops, [cpu for _, cpu in setups]),
                         E2E_UNITS)
    print(json.dumps({
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
