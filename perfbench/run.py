"""Run one benchmark workload against the vortexcc sources of this checkout.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

--trace 0 times the public calls with nothing patched and reports the
end-to-end metrics, with times scaled to a reference host speed.  --trace 1 runs the first round of the workload untraced,
then again with span wrappers installed, and reports the per-layer metrics
per round.  Every output is checked; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.  Context,
failures and every metric with its unit are printed above it and written to
.bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cap_blas_threads() -> dict:
    """Cap BLAS thread pools at the usable core count; must run before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        current = os.environ.get(var, "")
        if not (current.isdigit() and 0 < int(current) <= nproc):
            os.environ[var] = str(nproc)
    return {"nproc": nproc, **{var: int(os.environ[var]) for var in BLAS_VARS}}


def git_commit() -> str | None:
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


def load_units() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "vortexcc" / "__init__.py").is_file():
        print(f"error: no vortexcc sources under {SRC}", file=sys.stderr)
        return 2
    blas = cap_blas_threads()
    # Imported only now: numpy reads the BLAS caps when it loads.
    import numpy

    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(ROOT))
    from perfbench import inputs
    from perfbench.bench import Bench

    if args.workload not in inputs.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {inputs.WORKLOADS}",
              file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2

    context = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "generator": inputs.GENERATOR_PARAMS, "git_commit": git_commit(),
        "python": platform.python_version(), "numpy": numpy.__version__, "blas_threads": blas,
    }
    print("context " + json.dumps(context), flush=True)

    bench = Bench(args.workload, args.seed, args.seconds)
    setup_s, raw_setup_s = bench.setup()
    if not Path(bench.vc.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"vortexcc imported from {bench.vc.__file__}, not from {SRC}")
    record = {"context": context}
    if args.trace:
        metrics, missing, tracer = bench.traced()
        record["missing_spans"] = missing
    else:
        summary = bench.timed()
        summary["setup_s"] = (setup_s, "s")
        summary["raw_setup_s"] = (raw_setup_s, "s")
        metrics = {name: value for name, (value, _) in summary.items()}
        record["summary"] = {name: {"value": v, "unit": u} for name, (v, u) in summary.items()}

    known = sum(1 for f in bench.failures if f["known_defect"])
    for f in bench.failures:
        tag = f"known defect {f['known_defect']}" if f["known_defect"] else "NEW"
        print(f"FAIL [{tag}] {f['input']}: {f['reason']}")
    print(f"failures: {len(bench.failures)} of {bench.attempted} operations "
          f"({known} from known defects)")
    # The known defects are shown apart from the measured operations; a
    # probe that fails in an unexpected way makes the run incorrect.
    probes = bench.probe_known_defects() if args.workload == "certify" else []
    for p in probes:
        if not p["reason"]:
            print(f"known-defect probe passes, defect no longer shows: {p['input']}")
        else:
            tag = f"known defect {p['known_defect']}" if p["known_defect"] else "NEW"
            print(f"PROBE FAIL [{tag}] {p['input']}: {p['reason']}")
    unexpected = [p for p in probes if p["reason"] and not p["known_defect"]]

    units = load_units()
    reported = {}
    for name, value in metrics.items():
        unit = units.get(name) or record.get("summary", {}).get(name, {}).get("unit", "")
        print(f"metric {name} = {value} {unit}")
        if name in units:
            reported[name] = {"value": value, "unit": unit}
    result = {
        "correct": not bench.failures and not unexpected,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": reported,
    }
    record.update(result=result, failures=bench.failures, known_defect_probes=probes,
                  calls=bench.call_log)
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    Path(f"{stem}.json").write_text(json.dumps(record, indent=1, default=str))
    if args.trace:
        tracer.write(f"{stem}-spans.npz")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
