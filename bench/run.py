"""msym benchmark: times seeded workloads through the public API and checks
every result exactly.

    python3 bench/run.py --workload construct --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run; ``--workload all`` runs every workload in its own
process and prints each metric by name with its unit.  The last line of
standard output of a finished run is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is the run record (commit, interpreter, host, settings, calibration time).
Without the msym sources next to this directory it exits with an error and
prints no result.

The shared host's speed drifts by tens of percent from second to second, so
end-to-end times are reported at a fixed reference speed: a short
calibration slice of fixed work is timed between ops, and each op time is
scaled by the reference slice time over the slices timed around it.

msym is imported from ``src/`` next to this directory; there is nothing to
build.  Methods and workload choices are explained in NOTES.md.
"""

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

from tracer import LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS, Failed, cache_sizes  # noqa: E402

SETUP_MIN_REPEATS = 5   # set-up is repeated at least this often in a run,
SETUP_MIN_SECONDS = 1.5  # and until the repeats took this long together
SETUP_MAX_REPEATS = 25
SETUP_SLICES = 7   # calibration slices on each side of a set-up
MIN_PASSES = 3
TAIL_BEYOND = 10   # op_tail_ms: the slowest op time with this many above it
SLICE_EVERY_S = 0.005  # op time between two calibration slices
REF_SLICE_S = 0.5e-3   # slice time that defines the reference host speed


def metrics_of(kind, values):
    """The metrics BENCHMARK.json lists under ``kind``, with their units."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)[kind]
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec}


def fresh_msym():
    """Import msym from src/ anew and return its layer modules."""
    for name in [n for n in sys.modules if n.split(".")[0] == "msym"]:
        del sys.modules[name]
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    mods = {layer: importlib.import_module("msym." + layer)
            for layer in LAYERS}
    if not mods["macdonald"].__file__.startswith(SRC):
        raise SystemExit("msym was imported from outside %s" % SRC)
    return argparse.Namespace(**mods)


# Calibration slice: the square of a dense bivariate polynomial in the
# exponent-tuple -> int dict form msym stores its coefficients in.
SLICE_POLY = {(i, j): (7 * i + 3 * j) % 11 - 5 for i in range(6)
              for j in range(6)}


def calibration_slice():
    """Time of a fixed piece of pure-Python work shaped like msym's inner
    loop, a sparse polynomial product.  It takes about 0.5 ms on the
    reference host."""
    t0 = time.perf_counter()
    out = {}
    for (a0, a1), ca in SLICE_POLY.items():
        for (b0, b1), cb in SLICE_POLY.items():
            e = (a0 + b0, a1 + b1)
            out[e] = out.get(e, 0) + ca * cb
    return time.perf_counter() - t0


def at_reference_speed(seconds, slice_before, slice_after):
    """A time measured between two calibration slices, scaled to the host
    speed at which a slice takes REF_SLICE_S."""
    return seconds * 2 * REF_SLICE_S / (slice_before + slice_after)


def slice_median():
    """Median of SETUP_SLICES calibration slices; a slow host period shows
    as a larger value."""
    return statistics.median(calibration_slice()
                             for _ in range(SETUP_SLICES))


def set_up(workload, seed):
    """Import, input generation and prebuild, timed together after a full
    collection, so the garbage of an earlier set-up is not charged to it.
    Returns the workload, the wall time and the time at reference speed,
    scaled by the slice medians taken just before and after."""
    gc.collect()
    before = slice_median()
    t0 = time.perf_counter()
    ms = fresh_msym()
    wl = WORKLOADS[workload](ms, seed)
    wl.setup()
    wall = time.perf_counter() - t0
    return wl, wall, at_reference_speed(wall, before, slice_median())


def run_ops(wl, tracer=None, growth=None, slices=None):
    """One pass over every op; returns the per-op times and results.  With
    a tracer, spans carry the op index and ``growth`` sees each op's cache
    writes.  With ``slices`` (a list), a calibration slice is timed before
    the first op and after every SLICE_EVERY_S of op time, and each is
    appended as ``(ops before it, slice time)``.  Resets, slices and
    bookkeeping stay outside the timed interval."""
    gc.collect()
    clock = time.perf_counter
    times, results = [], []
    if slices is not None:
        slices.append((0, calibration_slice()))
        since = 0.0
    for k, (label, op) in enumerate(wl.ops):
        if wl.cold_ops:
            wl.reset()
        if tracer is not None:
            tracer.op_index = k
            growth.start()
        t0 = clock()
        try:
            r = op()
        except Exception as exc:  # counted as a failed op, not raised
            r = Failed("%s: %r" % (label, exc))
            print("op failed: %s" % r.error, file=sys.stderr)
        times.append(clock() - t0)
        if tracer is not None:
            growth.stop()
        results.append(r)
        if slices is not None:
            since += times[-1]
            if since >= SLICE_EVERY_S or k == len(wl.ops) - 1:
                slices.append((k + 1, calibration_slice()))
                since = 0.0
    return times, results


def reference_times(times, slices):
    """Each op time of a pass scaled to reference speed by the two slices
    timed around it."""
    out = []
    for (a, before), (b, after) in zip(slices, slices[1:]):
        out += [at_reference_speed(dt, before, after) for dt in times[a:b]]
    return out


class Passes:
    """Keeps the first pass's results and compares every later pass with
    them as it ends, so memory holds at most two passes of results."""

    def __init__(self):
        self.first = None
        self.later = []
        self.count = 0

    def add(self, results):
        self.count += 1
        if self.first is None:
            self.first = results
            return
        self.later += [not isinstance(a, Failed) and a == b
                       for a, b in zip(results, self.first)]

    def verdicts(self, wl):
        """Exact checks of the first pass, then the later comparisons; a
        later pass fails an op whose first result failed its check."""
        ok = wl.check(self.first)
        n = len(ok)
        return ok + [good and ok[k % n] for k, good in enumerate(self.later)]


def end_to_end(args):
    """Timed passes with tracing off.  Each op's figure is the median over
    the passes of its time at reference speed; the wall-clock best over the
    passes is kept in the record for comparison."""
    setups, setup_walls = [], []
    while (len(setups) < SETUP_MIN_REPEATS
           or sum(setup_walls) < SETUP_MIN_SECONDS
           and len(setups) < SETUP_MAX_REPEATS):
        wl, wall, ref = set_up(args.workload, args.seed)
        setup_walls.append(wall)
        setups.append(ref)
    n = len(wl.ops)
    if n <= 2 * TAIL_BEYOND:
        raise SystemExit("workload has too few ops for a tail percentile")
    per_op = [[] for _ in range(n)]
    best = [float("inf")] * n
    passes, walls, slice_times = Passes(), [], []
    t_start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        wl.reset()
        slices = []
        times, results = run_ops(wl, slices=slices)
        for samples, dt in zip(per_op, reference_times(times, slices)):
            samples.append(dt)
        best = [min(a, b) for a, b in zip(best, times)]
        slice_times += [dt for _, dt in slices]
        passes.add(results)
        wall = time.perf_counter() - t0
        walls.append(wall)
        if (passes.count >= MIN_PASSES
                and time.perf_counter() - t_start + wall > args.seconds):
            break
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ok = passes.verdicts(wl)
    failed = ok.count(False)
    typical = [statistics.median(samples) for samples in per_op]
    ranked = sorted(typical)
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_s": n / sum(typical),
        "op_p50_ms": statistics.median(typical) * 1e3,
        "op_tail_ms": ranked[n - 1 - TAIL_BEYOND] * 1e3,
        "peak_rss_mb": peak_mb,
        "pass_ratio": 1.0 - failed / len(ok),
    }
    detail = {
        "ops_per_pass": n, "passes": passes.count,
        "tail_percentile": round(100.0 * (n - TAIL_BEYOND) / n, 1),
        "setup_wall_s": setup_walls, "pass_wall_s": walls,
        "wall_best_ops_per_s": n / sum(best),
        "slice_quartiles_s": statistics.quantiles(slice_times, n=4),
        "slices": len(slice_times),
        "slowest_ops": [wl.ops[k][0] for k in sorted(
            range(n), key=typical.__getitem__)[-3:]],
    }
    return metrics_of("end_to_end", values), len(ok), failed, detail


class CacheGrowth:
    """Entries each op adds to the E/H/P and basis-inverse caches, summed
    over a pass, and the term count of the P_Lambda coefficients added."""

    def __init__(self, ms):
        self.ms = ms
        self.built = dict.fromkeys(cache_sizes(ms), 0)
        self.coeff_terms = 0

    def start(self):
        self.sizes = cache_sizes(self.ms)
        self.p_keys = set(self.ms.macdonald._P_CACHE)

    def stop(self):
        for key, size in cache_sizes(self.ms).items():
            self.built[key] += size - self.sizes[key]
        for key, poly in self.ms.macdonald._P_CACHE.items():
            if key not in self.p_keys:
                self.coeff_terms += sum(len(c.num) + len(c.den)
                                        for c in poly.terms.values())


def layer_values(tr, growth, ops_s):
    """Per-layer metrics of one traced pass whose ops took ``ops_s``."""
    qt = "qt_field.QtRational."
    mp = "polyring.MultiPoly."
    lay = tr.layers
    return {
        "qt_field.add_calls": tr.count(qt + "__add__", qt + "__sub__"),
        "qt_field.mul_calls": tr.count(qt + "__mul__", qt + "__rmul__"),
        "qt_field.div_calls": tr.count(qt + "__truediv__", qt + "inverse"),
        "qt_field.self_s": lay["qt_field"].self_s,
        "qt_field.share": lay["qt_field"].self_s / ops_s,
        "polyring.add_calls": tr.count(mp + "__add__", mp + "__sub__"),
        "polyring.mul_calls": tr.count(mp + "__mul__", mp + "__rmul__"),
        "polyring.scale_calls": tr.count(mp + "scale"),
        "polyring.terms_out": sum(v for k, v in tr.terms.items()
                                  if k.startswith("polyring.")),
        "polyring.self_s": lay["polyring"].self_s,
        "hecke_ops.T_calls": tr.count("hecke_ops.apply_T"),
        "hecke_ops.T_terms_in": tr.terms["hecke_ops.apply_T"],
        "hecke_ops.symmetrize_calls": tr.count("hecke_ops.symmetrize_t"),
        "hecke_ops.symmetrize_s": tr.fn_incl["hecke_ops.symmetrize_t"],
        "hecke_ops.self_s": lay["hecke_ops"].self_s,
        "macdonald.P_calls": tr.count("macdonald.msym_P"),
        "macdonald.P_built": growth.built["P"],
        "macdonald.E_built": growth.built["E"],
        "macdonald.coeff_terms": growth.coeff_terms,
        "macdonald.self_s": lay["macdonald"].self_s,
        "structure.expand_calls": tr.count("structure.expand_in_basis"),
        "structure.pair_calls": tr.count("structure.scalar_product_m"),
        "structure.basis_inverse_built": growth.built["basis_inverse"],
        "structure.self_s": lay["structure"].self_s,
        "kernels.km_calls": tr.count("kernels.km_truncated"),
        "kernels.mul_calls": tr.count("kernels.BiPoly.mul"),
        "kernels.mul_terms_in": tr.terms["kernels.BiPoly.mul"],
        "kernels.self_s": lay["kernels"].self_s,
        "combinatorics.calls": tr.layer_calls("combinatorics"),
        "combinatorics.self_s": lay["combinatorics"].self_s,
        "trace.ops_s": ops_s,
    }


def traced(args):
    """Alternate untraced and traced passes until the time is up.  Report
    the last traced pass, and as the tracing overhead the op time of the
    fastest traced pass over that of the fastest untraced pass."""
    wl, _, _ = set_up(args.workload, args.seed)
    plain, traced_s, passes = [], [], Passes()
    t_start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        wl.reset()
        times, results = run_ops(wl)
        passes.add(results)
        plain.append(sum(times))
        wl.reset()
        tracer, growth = Tracer(vars(wl.ms)), CacheGrowth(wl.ms)
        with tracer:
            times, results = run_ops(wl, tracer, growth)
        passes.add(results)
        traced_s.append(sum(times))
        values = layer_values(tracer, growth, traced_s[-1])
        wall = time.perf_counter() - t0
        if time.perf_counter() - t_start + wall > args.seconds:
            break
    values["trace.overhead_ratio"] = min(traced_s) / min(plain)
    ok = passes.verdicts(wl)
    spans_file = write_spans(args, wl, tracer.spans)
    metrics = metrics_of("per_layer", values)
    detail = {"ops_per_pass": len(wl.ops), "traced_passes": len(traced_s),
              "untraced_ops_s": plain, "traced_ops_s": traced_s,
              "spans_file": spans_file}
    return metrics, len(ok), ok.count(False), detail


def write_spans(args, wl, spans):
    """Spans of the last traced pass, one JSON array per line:
    [function, op index, parent span, start, end] (seconds)."""
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "spans-%s-%d.jsonl" % (args.workload,
                                                        args.seed))
    with open(path, "w") as fh:
        fh.write(json.dumps({"workload": args.workload, "seed": args.seed,
                             "ops": [label for label, _ in wl.ops]}) + "\n")
        for span in spans:
            fh.write(json.dumps(list(span)) + "\n")
    return os.path.relpath(path, ROOT)


def git_commit():
    """Commit of the checkout; None when it is not a git repository (git
    is kept from looking for one above the checkout)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest():
    """sha256 over src/msym/*.py, identifying the code when there is no
    commit to name."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "msym")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def run_record(args):
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "commit": git_commit(), "src_sha256": source_digest(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": nproc,
        "MSYM_MAXDEG": os.environ.get("MSYM_MAXDEG"),
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED"),
        "calibration_s": slice_median(),
    }


def run_all(args):
    """Each workload in its own process, so peak memory is its own; prints
    every metric by name with its unit and returns the combined result."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for key, m in result["metrics"].items():
            total["metrics"]["%s.%s" % (name, key)] = m
            print("%-10s %-28s %14.6g %s" % (name, key, m["value"],
                                             m["unit"]))
    return total


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "msym", "__init__.py")):
        raise SystemExit("msym sources not found under %s" % SRC)
    if args.workload == "all":
        result = run_all(args)
    else:
        record = run_record(args)
        run = traced if args.trace else end_to_end
        metrics, attempted, failed, detail = run(args)
        record.update(detail)
        print(json.dumps({"record": record}))
        result = {"correct": failed == 0, "attempted": attempted,
                  "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
