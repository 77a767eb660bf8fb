"""Child process of the benchmark: set-up, or one ``scenevat report`` op.

    python3 perfbench/op.py setup SRC WORKLOAD SEED DIR
    python3 perfbench/op.py op JOB.json

``setup`` imports the package from SRC and writes the workload inputs.
``op`` runs ``scenevat.cli.main`` once on the job's arguments and writes a
result JSON: exit code, wall time, peak RSS, time in feature extraction and
in ``run_report``, feature-cache misses and, when the job asks for a trace,
the spans of every traced call.  One process per op keeps peak RSS a per-op
figure.  A job with ``rerun_argv`` then runs the report again, untimed and
untraced, on the same feature cache and records that run's cache hits.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from tracer import Tracer  # noqa: E402


def _path_size(index, key):
    def size(args, kwargs, result):
        return os.path.getsize(args[index] if len(args) > index else kwargs[key])
    return size


# Functions the traced run wraps, with their counters.
TRACED = {
    "audio.decode_wav": None,
    "audio.resample": {"out_samples": lambda a, k, r: len(r)},
    "audio.log_mel_mean": None,
    "report.features_for_manifest": None,
    "report.run_report": None,
    "matrix.euclidean_dissim": None,
    "matrix.check_dissim": None,
    "matrix.permute_matrix": None,
    "vat.vat_order": None,
    "vat.odi_from": None,
    "vat.write_pgm": {"bytes": _path_size(1, "path")},
    "specvat.a_specvat_select_k": None,
    "specvat.specvat": None,
    "specvat.spectral_embedding": None,
    "specvat.local_scale_affinity": None,
    "specvat.normalized_affinity": None,
    "specvat.sym_eigen_topk": None,
    "cce.cce_count": None,
    "cce.otsu_effectiveness": None,
    "cce.otsu_threshold": None,
    "stacks.label_stack": None,
    "stacks.stack_svg": None,
    "stacks.stack_csv": None,
    "vatf.read_vatf": None,
    "vatf.write_vatf": {"bytes": _path_size(0, "path")},
    "vatf.atomic_write_text": None,
    "manifest.read_manifest": None,
}


def setup(src, workload, seed, in_dir) -> int:
    sys.path.insert(0, src)
    import scenevat  # noqa: F401  (import cost is part of set-up)
    from workloads import generate

    generate(workload, int(seed), in_dir)
    return 0


def run_op(job) -> dict:
    sys.path.insert(0, job["src"])
    from scenevat import cli

    # The end-to-end timers see only the calls the CLI makes: feature
    # extraction (or the --features read) and the report.  The cache
    # counters see the report module's reads of cached rows and its
    # extractions.
    tracer = Tracer("scenevat")
    if job["trace"]:
        for qualname, counters in TRACED.items():
            tracer.wrap(qualname, counters)
    e2e = Tracer("scenevat")
    e2e.wrap("report.features_for_manifest", name="features", only_in=("cli",))
    e2e.wrap("vatf.read_vatf", name="features", only_in=("cli",))
    e2e.wrap("report.run_report", name="report", only_in=("cli",))
    e2e.wrap("vatf.read_vatf", name="cache_hit", only_in=("report",))
    e2e.wrap("audio.extract_features", name="cache_miss", only_in=("report",))

    tracer.op = e2e.op = job["op"]
    usage = resource.getrusage(resource.RUSAGE_SELF)
    cpu_before = usage.ru_utime + usage.ru_stime
    result = _timed_main(cli, job["argv"])
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result["peak_rss_mib"] = usage.ru_maxrss / 1024
    result["cpu_s"] = usage.ru_utime + usage.ru_stime - cpu_before
    totals = e2e.totals(job["op"])
    result["features_s"] = totals.get("features.s", 0.0)
    result["report_s"] = totals.get("report.s", 0.0)
    result["cache_misses"] = int(totals.get("cache_miss.calls", 0))
    if job["trace"]:
        result["spans"] = list(tracer.spans)
        result["counts"] = {key: v for (_, key), v in tracer.counts.items()}
    if job.get("rerun_argv") and result["exit"] == 0:
        # Warm rerun on the same cache; it only feeds the checks.
        tracer.op = e2e.op = "warm"
        warm = _timed_main(cli, job["rerun_argv"])
        totals = e2e.totals("warm")
        warm["cache_hits"] = int(totals.get("cache_hit.calls", 0))
        warm["cache_misses"] = int(totals.get("cache_miss.calls", 0))
        result["warm"] = warm
    return result


def _timed_main(cli, argv) -> dict:
    out = {}
    start = time.perf_counter()
    try:
        out["exit"] = cli.main(argv)
    except SystemExit as exc:  # argparse rejects the arguments
        out["exit"] = exc.code
    except Exception as exc:  # noqa: BLE001  (recorded, counted as failed)
        out["exit"] = None
        out["error"] = "".join(traceback.format_exception(exc))
    out["wall_s"] = time.perf_counter() - start
    return out


def main(argv) -> int:
    if argv[:1] == ["setup"] and len(argv) == 5:
        return setup(*argv[1:])
    if argv[:1] == ["op"] and len(argv) == 2:
        with open(argv[1], encoding="utf-8") as fh:
            job = json.load(fh)
        result = run_op(job)
        with open(job["result"], "w", encoding="utf-8") as fh:
            json.dump(result, fh)
        return 0 if result["exit"] == 0 else 1
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
