"""Benchmark of the wzforms library, measured from outside it.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload roundtrip --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Workloads (see workloads.py): ``roundtrip``, ``verify``, ``wide`` and
``conjugate``; ``all`` runs each in its own process and prints one row per
workload.  Each is a closed loop: one caller, one thread, items back to back.

The timed phase runs whole passes over the workload's fixed items, as many
as bring its length nearest to ``--seconds`` (at least one).  Every item
starts with every functools cache of the package empty, and the cyclic
garbage collector runs between passes, not inside them.  Times are
corrected for the host's speed (see speed.py): they are the seconds the
work would take on a host of fixed speed, so that a shared CPU slowing down
does not move the figures.  An item's time is the median over passes of its
corrected time; the end-to-end metrics are taken over those per-item times,
and the same figures from raw wall time are printed in the report.  With
``--trace 0`` the last line of stdout is a JSON object with the end-to-end
metrics.  With ``--trace 1`` the run makes one untraced pass and two traced
passes, checks that the traced passes counted the same calls, and reports
the per-layer metrics of the first traced pass plus the tracing overhead
(uncorrected wall time).  The lines before the JSON report the tail
percentile, failures, the five slowest items and the environment.

Exit status 0 when the run completed (``correct`` tells whether every item
passed); 2 when the library or a self-check fails.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import speed
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
SETUP_PROBES = 2  # fresh interpreters timed on top of this process's own set-up
TAIL_BEYOND = 10


class BenchmarkError(RuntimeError):
    """A self-check of the benchmark failed; no result is printed."""


@dataclass
class Record:
    label: str
    data: object
    start: float
    seconds: float
    stages: tuple | None
    result: object


def package_caches():
    """Every functools cache found among the package's module attributes,
    keyed by qualified name."""
    caches = {}
    for mod in tracing.package_modules():
        for value in vars(mod).values():
            if callable(getattr(value, "cache_info", None)) and \
                    callable(getattr(value, "cache_clear", None)):
                caches[f"{value.__module__}.{value.__qualname__}"] = value
    return caches


def clear_caches(caches):
    for cache in caches.values():
        cache.cache_clear()
    warm = [name for name, cache in caches.items() if cache.cache_info().currsize]
    if warm:
        raise BenchmarkError(f"caches not empty at the start of an item: {warm}")


def timed_pass(wl, caches):
    """One pass over the workload's items, each with cold caches:
    (wall, records)."""
    gc.collect()
    gc.disable()
    try:
        records = []
        t0 = perf_counter()
        for label, data in wl.items:
            clear_caches(caches)
            start = perf_counter()
            try:
                stages, result = wl.run(data)
            except Exception as exc:  # counted as a failed item, never aborts
                stages, result = None, exc
            records.append(Record(label, data, start, perf_counter() - start,
                                  stages, result))
        return perf_counter() - t0, records
    finally:
        gc.enable()


def untraced_pass(wl, caches):
    left = tracing.installed_wrappers()
    if left:
        raise BenchmarkError(f"tracing wrappers installed in an untraced pass: {left}")
    return timed_pass(wl, caches)


def traced_pass(wl, caches):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wall, records = timed_pass(wl, caches)
    finally:
        tracer.restore()
    return wall, records, tracer


def count_failures(wl, records):
    """Number of failed records, plus a description of the first few.

    An output equal to one already checked for the same item passes without
    running the check again; later passes repeat the first one's outputs.
    """
    failed, notes, passed = 0, [], {}
    for rec in records:
        if isinstance(rec.result, Exception):
            ok, why = False, f"{type(rec.result).__name__}: {rec.result}"
        elif rec.label in passed and passed[rec.label] == rec.result:
            ok = True
        else:
            try:
                ok, why = wl.check(rec.data, rec.result), "wrong output"
            except Exception as exc:
                ok, why = False, f"check raised {type(exc).__name__}: {exc}"
            if ok:
                passed[rec.label] = rec.result
        if not ok:
            failed += 1
            if len(notes) < 5:
                notes.append(f"{rec.label}: {why}")
    return failed, notes


def tail_percentile(count):
    """Highest whole percentile whose nearest-rank item still has at least
    TAIL_BEYOND items above it, with that rank."""
    for p in range(99, 0, -1):
        rank = -(-p * count // 100)
        if count - rank >= TAIL_BEYOND:
            return p, rank
    raise BenchmarkError(f"{count} items are too few for a tail percentile")


def slowest(wl, records, k=5):
    out = []
    for rec in sorted(records, key=lambda r: r.seconds, reverse=True)[:k]:
        split = dict(zip(wl.stages, (round(s, 4) for s in rec.stages or ())))
        out.append({"item": rec.label, "s": round(rec.seconds, 4), "stages": split})
    return out


def probe_setup(name, seed):
    """Seconds of one set-up in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=150)
    if done.returncode != 0:
        raise BenchmarkError(f"set-up probe failed: {done.stderr.strip()}")
    return float(done.stdout.split()[-1])


def timed_setup(name, seed, workdir):
    """Build the workload: (workload, corrected seconds of the set-up)."""
    meter = speed.Speedometer()
    meter.start()
    try:
        t0 = perf_counter()
        wl = workloads.setup(name, seed, workdir)
        t1 = perf_counter()
    finally:
        meter.stop()
    return wl, meter.seconds(t0, t1)


def setup_only(name, seed):
    """Time one set-up in this process and print the corrected seconds."""
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        print(timed_setup(name, seed, tmp)[1])


def git_commit():
    """HEAD of the checkout, or 'unknown' outside git."""
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment(seed):
    import sympy

    try:
        import gmpy2  # noqa: F401
        has_gmpy2 = True
    except ImportError:
        has_gmpy2 = False
    return {"python": platform.python_version(), "sympy": sympy.__version__,
            "gmpy2": has_gmpy2, "nproc": os.cpu_count(),
            "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED", "unset"),
            "commit": git_commit(), "seed": seed}


def run_workload(name, seed, seconds, trace):
    """Set up, run and check one workload: (report, metrics, attempted, failed)."""
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        wl, took = timed_setup(name, seed, tmp)
        setups = [took]
        import wzforms

        if not Path(wzforms.__file__).resolve().is_relative_to(SRC):
            raise BenchmarkError(f"imported wzforms from {wzforms.__file__}, not {SRC}")
        if not trace:
            setups += [probe_setup(name, seed) for _ in range(SETUP_PROBES)]
        gc.freeze()  # the inputs live through the run; keep them out of collections
        caches = package_caches()
        report = {"workload": name, "setup_samples_s": setups,
                  "caches_cleared": sorted(caches)}
        if trace:
            records, metrics = traced_passes(wl, caches, report)
        else:
            records, metrics = timed_passes(wl, caches, seconds, report)
            metrics["setup_s"] = (statistics.median(setups), "s")
            metrics["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    failed, notes = count_failures(wl, records)
    report.update(items=len(records), failed_frac=failed / len(records),
                  failures=notes, environment=environment(seed))
    return report, metrics, len(records), failed


def timed_passes(wl, caches, seconds, report):
    """Whole untraced passes, as many as bring the total nearest to
    ``seconds`` (at least one).  An item's time is the median over passes
    of its host-speed-corrected seconds; ``items_per_s`` is the item count
    over the sum of those times, and the percentiles are taken over them, so
    they depend on the number of items in the workload, not on the number of
    passes.  The same figures from raw wall time go into the report."""
    walls, passes = [], []
    meter = speed.Speedometer()
    meter.start()
    try:
        while not walls or sum(walls) + statistics.mean(walls) / 2 < seconds:
            wall, recs = untraced_pass(wl, caches)
            walls.append(wall)
            passes.append(recs)
    finally:
        meter.stop()
    items = list(zip(*passes))
    times = [statistics.median(meter.seconds(r.start, r.start + r.seconds) for r in runs)
             for runs in items]
    raw = [statistics.median(r.seconds for r in runs) for runs in items]
    p, rank = tail_percentile(len(times))
    report.update(passes=len(walls), pass_walls_s=walls, tail_percentile=p,
                  items_beyond_tail=len(times) - rank,
                  host_slowdown=statistics.median(meter.took) / speed.REFERENCE_SECONDS,
                  wall=item_metrics(raw, rank),
                  slowest=slowest(wl, passes[0]))
    return [r for recs in passes for r in recs], item_metrics(times, rank)


def item_metrics(times, rank):
    ordered = sorted(times)
    return {
        "items_per_s": (len(ordered) / sum(ordered), "1/s"),
        "item_p50_ms": (statistics.median(ordered) * 1e3, "ms"),
        "item_tail_ms": (ordered[rank - 1] * 1e3, "ms"),
    }


def traced_passes(wl, caches, report):
    """One untraced and two traced passes; the traced ones must count alike."""
    wall_plain, plain = untraced_pass(wl, caches)
    wall_traced, first, tracer = traced_pass(wl, caches)
    _, second, again = traced_pass(wl, caches)
    counts, counts_again = tracer.counts(), again.counts()
    if counts != counts_again:
        differ = sorted(k for k in counts if counts[k] != counts_again[k])
        raise BenchmarkError(f"two traced passes counted differently: {differ}")
    units = dict(tracing.metric_units())
    metrics = {key: (value, units[key]) for key, value in tracer.metrics().items()}
    metrics["trace.overhead_frac"] = (wall_traced / wall_plain - 1, "ratio")
    report.update(passes=3, untraced_s=wall_plain, traced_s=wall_traced,
                  slowest=slowest(wl, plain))
    return plain + first + second, metrics


def result_line(metrics, attempted, failed):
    return json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}})


def print_row(name, metrics, report):
    cells = "  ".join(f"{k} {v:.6g} {u}" for k, (v, u) in metrics.items())
    print(f"{name:<10} {cells}  failed_frac {report['failed_frac']:.6g}")


def run_all(args):
    """Each workload in its own process, one row each."""
    merged, attempted, failed = {}, 0, 0
    for name in workloads.WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        if done.returncode != 0:
            raise BenchmarkError(f"workload {name} failed: {done.stderr.strip()}")
        lines = done.stdout.splitlines()
        report = json.loads(lines[-2].partition(" ")[2])
        result = json.loads(lines[-1])
        metrics = {k: (m["value"], m["unit"]) for k, m in result["metrics"].items()}
        print_row(name, metrics, report)
        merged.update({f"{name}.{k}": v for k, v in metrics.items()})
        attempted += result["attempted"]
        failed += result["failed"]
    print(result_line(merged, attempted, failed))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up of the workload and print the seconds")
    args = parser.parse_args(argv)
    if args.setup_only and args.workload == "all":
        parser.error("--setup-only needs a single workload")
    if not (SRC / "wzforms" / "__init__.py").is_file():
        print(f"error: no wzforms package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        if args.setup_only:
            setup_only(args.workload, args.seed)
            return 0
        if args.workload == "all":
            run_all(args)
            return 0
        report, metrics, attempted, failed = run_workload(
            args.workload, args.seed, args.seconds, args.trace)
    except (BenchmarkError, tracing.TraceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print_row(args.workload, metrics, report)
    print("report " + json.dumps(report))
    print(result_line(metrics, attempted, failed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
