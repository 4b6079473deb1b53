"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 bench/spread.py --workload construct --seeds 1 2 3 4 5

Runs ``run.py`` once per seed, one process after another, and prints for each
end-to-end metric the median of the runs and the distance between their first
and third quartiles as a share of the median, next to the metric's bound from
BENCHMARK.json.  A benchmark is steady enough when every spread but that of
``setup_s`` stays below a third of its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values = {name: [] for name in bounds}
    for seed in args.seeds:
        cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload",
               args.workload, "--seed", str(seed), "--seconds",
               str(spec["run_seconds"]),
               "--trace", "0"]
        out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                             check=True).stdout.strip().splitlines()
        record = json.loads(out[-2])["record"]
        result = json.loads(out[-1])
        print("seed %d: correct=%s failed=%d passes=%d calibration_s=%.4f"
              % (seed, result["correct"], result["failed"],
                 record["passes"], record["calibration_s"]))
        for name in values:
            values[name].append(result["metrics"][name]["value"])
    print("%-12s %12s %8s %8s  %s" % ("metric", "median", "spread", "bound",
                                      "values"))
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        print("%-12s %12.6g %8.4f %8g  %s"
              % (name, med, spread, bounds[name],
                 " ".join("%.6g" % v for v in vals)))


if __name__ == "__main__":
    main()
