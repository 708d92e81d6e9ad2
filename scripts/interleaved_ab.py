"""Time one benchmark workload on two checkouts, alternating in one process.

    python scripts/interleaved_ab.py PARENT CHANGE --workload solve-complex --reps 20
    python scripts/interleaved_ab.py PARENT CHANGE --workload solve-isolated certify --reps 10
    python scripts/interleaved_ab.py PARENT CHANGE --workload all --reps 20 --setup

Why in one process: on a shared 2-core x86-64 host the CPU speed was seen to
shift by about 1.45x from one minute to the next, so two benchmark processes
of the same commit, run one after the other, disagreed by about 10%.  That
hides a change of a few percent.  This script copies ``src/vortexcc`` of each
checkout under its own package name, loads both, and runs round r of the
workload on the parent and on the change back to back, alternating which side
goes first.  The two sides of one rep then see nearly the same host speed, and
their time ratio keeps little of the drift.

Rep r runs the calls of round r, from this checkout's
``perfbench.inputs.round_calls`` (a pure function of workload, seed and round),
after one untimed warm-up round per side.  As in ``perfbench/bench.py``, each
call's input is built before the clock starts and only the public calls are
timed.  With ``--setup``, rep r instead times one set-up per side as
``perfbench/bench.py`` does: drop the copied package's modules, import it,
build round 0 and make the workload's warm-up call.  Nothing is written
under ``perfbench/``.  The script prints each rep's times and change/parent
ratio.  It then prints one summary per workload, in the order given (``all``
names every workload): the median and quartiles of the ratios, the number
of reps in which the change was faster, and the number whose reports were
identical (by ``repr``).  Round reps add one line per call slot of the
round: the median of that slot's change/parent time ratios and the number
of reps in which the change was faster on it.  The benchmark's
``call_p50_ms`` is the time of one slot, which a ratio over whole rounds
dilutes with the other slots' times.
"""

from __future__ import annotations

import argparse
import importlib
import shutil
import sys
import tempfile
from collections import defaultdict
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]


def load(checkout: Path, name: str, into: Path):
    """Import ``checkout/src/vortexcc`` as the package ``name``, from a copy under ``into``."""
    src = checkout / "src" / "vortexcc"
    if not (src / "__init__.py").is_file():
        raise SystemExit(f"error: no vortexcc sources under {checkout / 'src'}")
    shutil.copytree(src, into / name, ignore=shutil.ignore_patterns("__pycache__"))
    return importlib.import_module(name)


def run_round(vc, calls) -> tuple[list, list]:
    """Wall time and result of each of the round's public calls, made as the benchmark makes them.

    Each call's ``VorticitySet`` is built before the clock starts, as the
    benchmark builds it, so only the public calls are timed.
    """
    prepared = []
    for call in calls:
        kwargs = {} if call.api == "verdict" else {"starts": call.starts, "seed": call.seed}
        if call.api == "solve_central_multistart":
            kwargs["regime"] = call.regime
        prepared.append((getattr(vc, call.api), vc.VorticitySet(call.gammas), kwargs))
    times, results = [], []
    for fn, v, kwargs in prepared:
        t0 = perf_counter()
        results.append(fn(v, **kwargs))
        times.append(perf_counter() - t0)
    return times, results


def setup_once(name: str, workload: str, seed: int, warmup) -> tuple[list, list]:
    """Wall time and warm-up result of one set-up of package ``name``, made as the benchmark makes it."""
    from perfbench import inputs

    for module in [m for m in sys.modules if m == name or m.startswith(name + ".")]:
        del sys.modules[module]
    t0 = perf_counter()
    vc = importlib.import_module(name)
    inputs.round_calls(workload, seed, 0)
    _, results = run_round(vc, (warmup,))
    return [perf_counter() - t0], results


def compare(sides, names, workload: str, args) -> str:
    """Run the reps of one workload on both sides, printing each; returns its summary line."""
    import numpy as np

    from perfbench import inputs
    from perfbench.bench import Bench

    if args.setup:
        warmup = Bench(workload, args.seed, 1.0).warmup
    else:
        for vc in sides:
            run_round(vc, inputs.round_calls(workload, args.seed, 0))
    ratios, identical = [], 0
    slot_ratios = defaultdict(list)     # call slot -> change/parent time ratio per rep
    print(f"{workload}\nrep  parent_s  change_s  change/parent")
    for rep in range(args.reps):
        order = (0, 1) if rep % 2 == 0 else (1, 0)
        if args.setup:
            timed = {side: setup_once(names[side], workload, args.seed, warmup) for side in order}
        else:
            calls = inputs.round_calls(workload, args.seed, rep)
            timed = {side: run_round(sides[side], calls) for side in order}
            slot_time = [defaultdict(float), defaultdict(float)]
            for side in (0, 1):
                for call, dt in zip(calls, timed[side][0]):
                    slot_time[side][call.slot] += dt
            for slot, dt in slot_time[0].items():
                slot_ratios[slot].append(slot_time[1][slot] / dt)
        (t_parent, r_parent), (t_change, r_change) = timed[0], timed[1]
        t_parent, t_change = sum(t_parent), sum(t_change)
        ratios.append(t_change / t_parent)
        identical += repr(r_parent) == repr(r_change)
        print(f"{rep:3d}  {t_parent:8.3f}  {t_change:8.3f}  {ratios[-1]:.3f}", flush=True)

    q1, median, q3 = np.percentile(ratios, [25, 50, 75])
    faster = sum(r < 1.0 for r in ratios)
    what = f"{workload} set-up" if args.setup else workload
    lines = [f"change/parent time over {args.reps} reps of {what} (seed {args.seed}): "
             f"median {median:.3f}, quartiles {q1:.3f}-{q3:.3f}; change faster in "
             f"{faster}/{args.reps}; reports identical in {identical}/{args.reps}"]
    for slot in sorted(slot_ratios):
        r = slot_ratios[slot]
        lines.append(f"  slot {slot}: median {np.median(r):.3f}; change faster in "
                     f"{sum(x < 1.0 for x in r)}/{len(r)}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout timed as the base")
    parser.add_argument("change", type=Path, help="checkout timed against it")
    parser.add_argument("--workload", nargs="+", required=True,
                        help="one or more workloads, or 'all'")
    parser.add_argument("--reps", type=int, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--setup", action="store_true",
                        help="time set-up (import, round 0, warm-up call) instead of rounds")
    args = parser.parse_args(argv)
    if args.reps < 1 or args.seed < 0:
        parser.error("--reps must be >= 1 and --seed >= 0")

    sys.dont_write_bytecode = True     # keep perfbench/ and the copies free of caches
    sys.path.insert(0, str(ROOT))
    from perfbench.run import cap_blas_threads

    cap_blas_threads()                 # as the benchmark does, before numpy loads
    from perfbench import inputs

    workloads = list(inputs.WORKLOADS) if args.workload == ["all"] else args.workload
    for workload in workloads:
        if workload not in inputs.WORKLOADS:
            parser.error(f"unknown workload {workload!r}; choose from {inputs.WORKLOADS} or 'all'")

    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        names = ("vortexcc_parent", "vortexcc_change")
        sides = (load(args.parent.resolve(), names[0], Path(tmp)),
                 load(args.change.resolve(), names[1], Path(tmp)))
        summaries = [compare(sides, names, workload, args) for workload in workloads]
    print("\n".join(summaries))
    return 0


if __name__ == "__main__":
    sys.exit(main())
