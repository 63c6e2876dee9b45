"""cmhier benchmark: one closed-loop client, one process, seeded inputs.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]

Run from the root of a checkout. With --trace 0 the last stdout line is the
JSON result holding every end-to-end metric of BENCHMARK.json; with
--trace 1 it holds every per-layer metric, taken from running each op a
second time with span-recording wrappers installed, plus the per-N sweep.
--out writes the full record (provenance, every op, failing seeds).
The end-to-end times are in reference seconds (see calibration.py).
See benchmarks/README.md for the workloads and metrics.
"""

import os

# BLAS threads are fixed before numpy loads, for this process and the set-up
# probes it starts; the value is recorded in every result's provenance.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import calibration  # noqa: E402
import workloads  # noqa: E402

ROOT = workloads.ROOT
SETUP_PROBES = 7
PROBE_TIMEOUT = 60


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _git_commit() -> str | None:
    """HEAD of the checkout read from .git, without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance(args) -> dict:
    import numpy as np

    digest = hashlib.sha256()
    for path in sorted((workloads.SRC / "cmhier").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "commit": _git_commit(),
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "cpus_allowed": sorted(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def measure_setup(args) -> tuple[list[float], list[float]]:
    """Fresh process start to first op, several times: each probe imports numpy
    and every cmhier module, makes the first pass's inputs and reports ready.
    Returns the probes' wall times and the reference blocks around them."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    times, blocks = [], [calibration.block(calibration.MIXED)]
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            try:
                line = proc.stdout.readline()
                elapsed = time.perf_counter() - start
                proc.wait(timeout=PROBE_TIMEOUT)
            except BaseException:
                proc.kill()
                raise
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
        times.append(elapsed)
        blocks.append(calibration.block(calibration.MIXED))
    return times, blocks


def _op_record(r: workloads.OpResult) -> dict:
    return {"index": r.index, "label": r.label, "outcome": r.outcome, "seconds": r.seconds,
            "problems": r.problems, "ratios": r.ratios, "note": r.note}


def _residual_metrics(results) -> dict[str, float]:
    """Worst residual / tolerance per gated check over the run; 0 for checks it did not run."""
    ratios = {name: [0.0] for name in workloads.RESIDUAL_CHECKS}
    for r in results:
        for name, ratio in r.ratios.items():
            if name in ratios:
                ratios[name].append(ratio)
    return {f"residual.{name}.ratio": workloads.worst(values) for name, values in ratios.items()}


def run(args) -> dict:
    workload = workloads.WORKLOADS[args.workload]
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    record = {"provenance": provenance(args)}
    plain: list[workloads.OpResult] = []  # the traced run's plain runs of its ops
    try:
        if args.trace == 0:
            calibration.block(calibration.MIXED)  # first calls into numpy, not kept
            setup, setup_blocks = measure_setup(args)
            blocks = [calibration.block(workload.reference)]

            def op_then_block(op, workdir):
                result = workload.run_op(op, workdir)
                blocks.append(calibration.block(workload.reference))
                return result

            results, passes = workloads.run_passes(
                dataclasses.replace(workload, run_op=op_then_block), args.seed, workdir, budget=args.seconds)
            wall = [r.seconds for r in results]
            times = calibration.scaled(wall, blocks)
            metrics = {
                "setup_s": statistics.median(calibration.scaled(setup, setup_blocks)),
                "ops_per_s": len(results) / sum(times),
                "op_s_p50": statistics.median(times),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "failed_ratio": workloads.failed_ratio(results),
            }
            record["wall"] = {
                "setup_s": statistics.median(setup),
                "ops_per_s": len(results) / sum(wall),
                "op_s_p50": statistics.median(wall),
            }
            record["setup_probes_s"] = setup
            record["reference_blocks_s"] = {"setup": setup_blocks, "ops": blocks}
        else:
            import sweep
            import tracing

            tracer = tracing.Tracer()

            def plain_and_traced(op, workdir):
                # every op twice, back to back, so that a drift in machine speed
                # hits both sides of trace_overhead alike; which side goes first
                # alternates, so neither always finds the caches warm
                if op.index % 2 == 0:
                    plain.append(workload.run_op(op, workdir))
                with tracer:
                    traced = workload.run_op(op, workdir)
                if op.index % 2 == 1:
                    plain.append(workload.run_op(op, workdir))
                return traced

            results, passes = workloads.run_passes(
                dataclasses.replace(workload, run_op=plain_and_traced), args.seed, workdir, budget=args.seconds)
            if [(r.label, r.outcome) for r in plain] != [(r.label, r.outcome) for r in results]:
                raise RuntimeError("an op got a different outcome with the wrappers installed")
            metrics = tracing.layer_metrics(tracer)
            metrics["trace_overhead"] = sum(r.seconds for r in results) / sum(r.seconds for r in plain) - 1.0
            metrics["failed_ratio"] = workloads.failed_ratio(results)
            metrics.update(_residual_metrics(results))
            metrics.update(sweep.run_sweep(args.seed))
            record["untraced_ops"] = [_op_record(r) for r in plain]
            record["spans"] = len(tracer.start)
            record["untraced_targets"] = tracer.missing
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record.update({
        "passes": passes,
        "ops": [_op_record(r) for r in results],
        "failing": [r.label for r in results if r.outcome != "ok"],
        "metrics_all": metrics,
    })
    record["correct"] = all(not r.problems for r in plain + results)
    record["attempted"] = len(results)
    record["failed"] = sum(r.outcome != "ok" for r in results)
    return record


def main(argv=None) -> int:
    spec = _spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="write the full results record here")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not args.setup_probe:
        calibration.pin_to_one_cpu()  # the set-up probes inherit it
    workloads.load_program()
    if args.setup_probe:
        workloads.WORKLOADS[args.workload].make_pass(args.seed, 0)
        print("ready", flush=True)
        return 0

    record = run(args)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in record["metrics_all"]]
    if missing:
        print(f"error: metrics not produced: {', '.join(missing)}", file=sys.stderr)
        return 3
    metrics = {m["name"]: {"value": record["metrics_all"][m["name"]], "unit": m["unit"]} for m in declared}
    if args.out is not None:
        args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")

    print(f"{args.workload} seed {args.seed}: {record['attempted']} ops in {record['passes']} passes, "
          f"{record['failed']} failed {record['failing']}, outputs correct: {record['correct']}")
    for r in record["ops"]:
        if r["problems"]:
            print(f"  wrong output {r['label']}: {'; '.join(r['problems'])}")
    for name, m in metrics.items():
        wall = record.get("wall", {}).get(name)
        print(f"  {name} = {m['value']:.6g} {m['unit']}" + ("" if wall is None else f"  (wall {wall:.6g})"))
    print(json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
