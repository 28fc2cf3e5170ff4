"""Run the benchmark on several workloads and seeds; report every metric and its spread.

    python3 bench/steady.py --seeds 1                 # every workload once: all metrics
    python3 bench/steady.py --workloads steer --seeds 1 2 3 4 5 6 7 8 9 10

Each run is a separate ``bench/run.py`` process with ``--seconds`` taken
from BENCHMARK.json, and its metric table is printed as it finishes.  Per
workload, every end-to-end metric of BENCHMARK.json is then summarised by
its median and its spread: the distance between the first and third
quartile as a share of the median, next to the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median

from stats import spread

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)
    ok = True
    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        for seed in args.seeds:
            proc = subprocess.run(
                [*spec["command"], "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600,
            )
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]), flush=True)
            result = json.loads(lines[-1])
            ok &= proc.returncode == 0 and result["correct"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        if len(args.seeds) < 2:
            continue
        print(f"# {workload}: {len(args.seeds)} seeds")
        for metric in spec["end_to_end"]:
            vals = values[metric["name"]]
            s = spread(vals)
            print(f"#   {metric['name']:<14} median={median(vals):.4g} spread={s:.3f} "
                  f"bound={metric['bound']} {'ok' if s <= metric['bound'] / 3 else 'WIDE'}",
                  flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
