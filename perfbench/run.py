"""The repo benchmark: cold-process runs of four workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload jacobi_grid --seed 0 \\
        --seconds 25 --trace 0

``--workload all`` (the default) runs every workload in turn.  Each
repetition is a fresh interpreter (``child.py``), which is what one
``repro`` CLI invocation pays: imports, problem and device construction
(``setup_s``), then the timed section (``wall_s``).  Repetitions continue
until ``--seconds`` have passed (at least three); the host figures are
their medians.

The speed of a shared host drifts by tens of percent over minutes, far
more than a regression bound.  So each repetition also times a fixed
reference loop around its timed section, and ``wall_s`` and ``setup_s``
are scaled to a host on which that loop takes :data:`REFERENCE_LOOP_S`:
``measured * REFERENCE_LOOP_S / reference loop seconds``.  The raw
medians are printed beside them.

Simulated figures and output digests must be identical across the
repetitions of a run, or the run aborts with :class:`DeterminismError`.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` adds one ``cProfile``-d repetition and prints the
per-layer metrics instead.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
``README.md`` beside this file maps each per-layer metric to the
end-to-end metric and workload it should move.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from layers import LAYERS

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_REPS = 3
#: reference-loop seconds of the host speed that ``wall_s`` is scaled to
REFERENCE_LOOP_S = 0.025
#: one workload's repetitions, the last one included, end within this
RUN_LIMIT_S = 170.0
#: units of the simulated figures shown in the table but not gated
EXTRA_UNITS = {"sim_gpts": "GPt/s", "sim_energy_j": "J",
               "shed_frac": "fraction"}


class BenchError(RuntimeError):
    """The benchmark could not produce a trustworthy result."""


class DeterminismError(BenchError):
    """A simulated figure or output digest drifted between repetitions."""


def _load_spec(root: str) -> dict:
    path = os.path.join(root, "BENCHMARK.json")
    if not os.path.isfile(path):
        raise BenchError(f"no BENCHMARK.json in {root}; run from the root "
                         f"of a checkout")
    with open(path) as fh:
        return json.load(fh)


def _check_environment(root: str) -> None:
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        raise BenchError(f"no src/repro package under {root}; run from the "
                         f"root of a checkout")
    # REPRO_LINT=off or REPRO_ENGINE_FASTPATH=0 would silently measure a
    # different program.
    toggles = sorted(k for k in os.environ if k.startswith("REPRO_"))
    if toggles:
        raise BenchError(f"unset {', '.join(toggles)}: the benchmark "
                         f"measures the default configuration only")


def _child_env(root: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _child(root: str, workload: str, seed: int, profile: bool,
           timeout_s: float) -> dict:
    # -B: no repetition writes a bytecode cache, so each pays the same
    # import cost
    cmd = [sys.executable, "-B", os.path.join(HERE, "child.py"), workload,
           str(seed)] + (["--profile"] if profile else [])
    try:
        proc = subprocess.run(cmd, cwd=root, env=_child_env(root),
                              capture_output=True, text=True,
                              timeout=max(timeout_s, 0.0))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: repetitions did not finish within "
                         f"{RUN_LIMIT_S:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{workload}: repetition exited with "
                         f"{proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _fingerprint(rep: dict) -> dict:
    return {k: rep[k] for k in ("sim", "extra", "layer", "digests")}


def _check_deterministic(workload: str, reps) -> None:
    first = _fingerprint(reps[0])
    for i, rep in enumerate(reps[1:], 1):
        fp = _fingerprint(rep)
        if fp != first:
            drift = sorted(
                f"{section}.{key}: {first[section].get(key)!r} -> "
                f"{fp[section].get(key)!r}"
                for section in first
                for key in set(first[section]) | set(fp[section])
                if first[section].get(key) != fp[section].get(key))
            raise DeterminismError(
                f"{workload}: repetition {i} drifted from repetition 0: "
                + "; ".join(drift))


def run_workload(root: str, spec: dict, workload: str, seed: int,
                 seconds: float, trace: bool):
    """Run one workload; returns (correct, attempted, failed, metrics)."""
    start = time.perf_counter()

    def child(profile):
        left = RUN_LIMIT_S - (time.perf_counter() - start)
        return _child(root, workload, seed, profile, left)

    profiled = [child(True)] if trace else []
    reps = []
    while len(reps) < MIN_REPS or time.perf_counter() - start < seconds:
        reps.append(child(False))
    _check_deterministic(workload, reps + profiled)

    first = reps[0]
    attempted = sum(r["attempted"] for r in reps + profiled)
    failures = [f for r in reps + profiled for f in r["failures"]]

    def scaled(rep, key):
        return rep[key] * REFERENCE_LOOP_S / rep["calib_s"]

    wall = statistics.median(scaled(r, "wall_s") for r in reps)
    values = {
        "wall_s": wall,
        "setup_s": statistics.median(scaled(r, "setup_s") for r in reps),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        **first["sim"],
    }
    if trace:
        values.update(first["layer"])
        values.update(profiled[0]["profile"])
        values["sim.events_per_s"] = first["layer"]["sim.events"] / wall
        values["trace_overhead_frac"] = \
            scaled(profiled[0], "wall_s") / wall - 1.0
    section = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in section}

    print(f"== {workload}  seed {seed}  {len(reps)} cold repetitions"
          + ("  + 1 profiled" if trace else "")
          + f"  python {platform.python_version()}"
          + f"  cpu_count {os.cpu_count()}")
    shown = dict(metrics)
    if not trace:
        for key, label in (("wall_s", "wall_s (unscaled)"),
                           ("setup_s", "setup_s (unscaled)"),
                           ("calib_s", "reference_loop_s")):
            shown[label] = {"value": statistics.median(r[key] for r in reps),
                            "unit": "s"}
        shown.update({k: {"value": v, "unit": EXTRA_UNITS[k]}
                      for k, v in first["extra"].items()})
        shown["fail_frac"] = {"value": len(failures) / attempted,
                              "unit": "fraction"}
    for name, m in shown.items():
        print(f"  {name:<34} {m['value']:>16.6g} {m['unit']}")
    if trace:
        self_s = {layer: values[f"{layer}.self_s"]
                  for layer in (*LAYERS, "other")}
        total = sum(self_s.values())
        shares = ", ".join(f"{layer} {100 * t / total:.1f}%"
                           for layer, t in self_s.items() if t)
        print(f"  host self-time shares: {shares}")
    for f in failures:
        print(f"  FAILED {f}")
    return not failures, attempted, len(failures), metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    try:
        spec = _load_spec(root)
        _check_environment(root)
        names = [w["name"] for w in spec["workloads"]]
        if args.workload not in names + ["all"]:
            raise BenchError(f"unknown workload {args.workload!r}; "
                             f"choose from {', '.join(names)} or all")
        chosen = names if args.workload == "all" else [args.workload]
        results = {w: run_workload(root, spec, w, args.seed, args.seconds,
                                   bool(args.trace))
                   for w in chosen}
    except BenchError as e:
        print(f"perfbench: {type(e).__name__}: {e}", file=sys.stderr)
        return 1

    if len(chosen) == 1:
        correct, attempted, failed, metrics = results[chosen[0]]
    else:
        correct = all(r[0] for r in results.values())
        attempted = sum(r[1] for r in results.values())
        failed = sum(r[2] for r in results.values())
        metrics = {f"{w}.{k}": v for w, r in results.items()
                   for k, v in r[3].items()}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
