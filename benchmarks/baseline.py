"""Run every workload on several seeds and write one results file.

    python3 benchmarks/baseline.py

Each run is a separate `run.py` process: --trace 0 once per seed, and
--trace 1 once per workload. The file, benchmarks/results/BENCH_baseline.json,
keeps every run's record (provenance, metrics, failing ops) and, per workload
and end-to-end metric, the median, the quartiles and the spread (quartile
distance over median) next to the metric's bound in BENCHMARK.json. Run
from the root of a checkout.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = 10
OUT = HERE / "results" / "BENCH_baseline.json"


def _run(workload: str, seed: int, trace: int, seconds: int, scratch: Path) -> dict:
    out = scratch / f"{workload}-{seed}-{trace}.json"
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--out", str(out)]
    subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL, timeout=600)
    record = json.loads(out.read_text(encoding="utf-8"))
    out.unlink()
    return record


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)

    runs, summary = {}, {}
    for w in spec["workloads"]:
        name = w["name"]
        untraced = [_run(name, seed, 0, spec["run_seconds"], scratch) for seed in range(SEEDS)]
        traced = _run(name, 0, 1, spec["run_seconds"], scratch)
        runs[name] = {"untraced": untraced, "traced": traced}
        summary[name] = {}
        for metric in spec["end_to_end"]:
            stats = spread([r["metrics_all"][metric["name"]] for r in untraced])
            stats["bound"] = metric["bound"]
            summary[name][metric["name"]] = stats
            print(f"{name:20s} {metric['name']:12s} median {stats['median']:.5g} {metric['unit']}"
                  f"  spread {stats['spread']:.3f}  bound {metric['bound']}")
        print(f"{name:20s} failing ops (seed 0): {untraced[0]['failing']}  correct: "
              f"{all(r['correct'] for r in untraced + [traced])}")

    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(json.dumps({"summary": summary, "runs": runs}, indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
