"""The four benchmark workloads, each a seeded set of inputs run through
the public entry points of ``repro.core``, ``repro.cluster``,
``repro.serve`` and ``repro.ops``.

A workload function builds its problem and devices (the set-up the
child process times as ``setup_s``) and returns a :class:`Case`: the
``run`` callable is the timed section, and ``measure`` turns its output
into checked answers, simulated figures and a determinism fingerprint.
Everything here happens inside one fresh interpreter per run.

The seed draws the input data and a trim ``r`` in {0, 1} that drops one
grid row, matrix row or FFT pencil from a leading extent.  The trim keeps the
critical path of every decomposition but changes the bytes moved, so
simulated figures depend on the seed as well as on the code.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Dict, List

import numpy as np

from repro.analysis.metrics import percentile
from repro.analysis.profile import profile_device
from repro.arch.device import GrayskullDevice

SLOTS = ("dm0", "compute", "dm1")

#: per-layer simulated figures every workload reports (0 where the
#: layer does no work on that workload)
SIM_LAYER_KEYS = (
    *(f"arch.busy_s.{s}" for s in SLOTS),
    *(f"arch.stall_s.{s}" for s in SLOTS),
    "arch.noc_read_bytes", "arch.noc_write_bytes",
    "arch.dram_bank_busy_max_s", "arch.fpu_tile_ops", "arch.energy_j",
    "ttmetal.pcie_s",
    "cluster.host_stage_s", "cluster.halo_bytes", "cluster.stall_s",
    "serve.wait_p99_s", "serve.service_p50_s", "serve.batched_frac",
    "serve.util_mean", "serve.shed_frac", "serve.unique_solves_frac",
    "sim.events",
)


@dataclass
class Measurement:
    """What one run of a workload produced, after checking it."""

    attempted: int                 #: operations attempted
    failures: List[str]            #: one entry per failed check or error
    #: end-to-end simulated figures (identical for a given seed)
    sim: Dict[str, float]
    #: simulated figures shown in the report but not gated
    extra: Dict[str, float]
    #: per-layer simulated figures, keys of :data:`SIM_LAYER_KEYS`
    layer: Dict[str, float]
    #: output digests that must not drift between runs of one seed
    digests: Dict[str, str]


@dataclass
class Case:
    run: Callable[[], object]
    measure: Callable[[object], Measurement]


def _sha16(arr: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()[:16]


def _inputs(seed: int):
    """(rng, trim): the seeded generator and the extent trim r in {0, 1}."""
    rng = np.random.default_rng(seed)
    return rng, int(rng.integers(0, 2))


def _laplace(nx: int, ny: int, rng):
    from repro.core.grid import LaplaceProblem

    left, right, top, bottom, initial = rng.uniform(-1.0, 1.0, 5).tolist()
    return LaplaceProblem(nx=nx, ny=ny, left=left, right=right, top=top,
                          bottom=bottom, initial=initial)


def _device_layer(devices) -> Dict[str, float]:
    """Simulated busy/stall/NoC/DRAM/FPU/PCIe/energy summed over devices."""
    out = dict.fromkeys(SIM_LAYER_KEYS, 0.0)
    events = 0
    for dev in devices:
        prof = profile_device(dev)
        for cp in prof.cores:
            for s in SLOTS:
                out[f"arch.busy_s.{s}"] += cp.busy[s]
                out[f"arch.stall_s.{s}"] += cp.stall[s]
        out["arch.noc_read_bytes"] += prof.noc0_read_bytes
        out["arch.noc_write_bytes"] += prof.noc1_write_bytes
        out["arch.dram_bank_busy_max_s"] = max(
            out["arch.dram_bank_busy_max_s"], *prof.bank_busy_s)
        out["arch.fpu_tile_ops"] += sum(c.fpu.ops for c in dev.workers)
        out["arch.energy_j"] += prof.energy_j
        out["ttmetal.pcie_s"] += dev.pcie.busy_time
        events += dev.sim.events_processed
    out["sim.events"] = events
    return out


def _device_ops_sim(latencies: List[float]) -> Dict[str, float]:
    """End-to-end simulated figures of sequential device operations."""
    total = sum(latencies)
    return {"sim_s": total, "sim_p99_s": percentile(latencies, 99),
            "goodput_rps": len(latencies) / total}


# --------------------------------------------------------------------------
# workloads
# --------------------------------------------------------------------------

def jacobi_grid(seed: int) -> Case:
    """One 108-core optimised Jacobi launch: 288 x (216 - r), 2 iterations."""
    from repro.core.jacobi_optimized import OptimizedJacobiRunner
    from repro.cpu import jacobi_solve_bf16

    iterations = 2
    rng, trim = _inputs(seed)
    problem = _laplace(288, 216 - trim, rng)
    dev = GrayskullDevice(dram_bank_capacity=64 << 20)
    runner = OptimizedJacobiRunner(dev, problem, cores_y=12, cores_x=9)

    def measure(res) -> Measurement:
        want = jacobi_solve_bf16(problem.initial_grid_bf16(), iterations)
        failures = [] if np.array_equal(res.grid_bits, want) else [
            "jacobi_grid: readback differs from jacobi_solve_bf16"]
        return Measurement(
            attempted=1, failures=failures,
            sim=_device_ops_sim([res.total_time_s]),
            extra={"sim_gpts": res.gpts, "sim_energy_j": res.energy_j},
            layer=_device_layer([dev]),
            digests={"grid_sha": _sha16(res.grid_bits)})

    return Case(run=lambda: runner.run(iterations), measure=measure)


def cluster_relaunch(seed: int) -> Case:
    """2x2 cards x 2x2 cores, DES timing, staged halo: (128 - r) x 128,
    10 iterations, i.e. 40 launches of one program."""
    from repro.cluster import ClusterConfig, ClusterSolver
    from repro.cpu import jacobi_solve_bf16

    rng, trim = _inputs(seed)
    cfg = ClusterConfig(nx=128, ny=128 - trim, iterations=10, cards_y=2,
                        cards_x=2, cores_y=2, cores_x=2, timing="des",
                        exchange="staged")
    problem = _laplace(cfg.nx, cfg.ny, rng)
    solver = ClusterSolver(cfg)

    def measure(res) -> Measurement:
        want = jacobi_solve_bf16(problem.initial_grid_bf16(), cfg.iterations)
        failures = [] if np.array_equal(res.grid_bits, want) else [
            "cluster_relaunch: readback differs from jacobi_solve_bf16"]
        layer = _device_layer(solver.last_des_cluster)
        layer["cluster.host_stage_s"] = res.host_stage_s
        layer["cluster.halo_bytes"] = res.exchange.bytes_moved
        layer["cluster.stall_s"] = sum(res.stall_s)
        return Measurement(
            attempted=1, failures=failures,
            sim=_device_ops_sim([res.wall_time_s]),
            extra={"sim_gpts": res.gpts, "sim_energy_j": res.energy_j},
            layer=layer,
            digests={"grid_sha": _sha16(res.grid_bits)})

    return Case(run=lambda: solver.solve(problem), measure=measure)


def serve_mixed(seed: int) -> Case:
    """Open-loop loadgen: 4,000 mixed requests at 600 rps, solve post-pass."""
    from repro.serve import LoadGenConfig, run_loadgen, verify_chaos_report

    cfg = LoadGenConfig(mode="open", seed=seed, n_requests=4000,
                        arrival_rate_rps=600.0,
                        workloads=("jacobi", "matmul", "fft", "stencil9"))

    def run():
        return run_loadgen(cfg, solve=True, jobs=1, cache=False)

    def measure(report) -> Measurement:
        done = report.completed()
        # verify_chaos_report holds for fault-free runs too: one terminal
        # outcome per request, typed sheds, counters that close.
        failures = [f"serve_mixed: {v}" for v in verify_chaos_report(report)]
        if len(report.outcomes) != cfg.n_requests:
            failures.append(f"serve_mixed: {len(report.outcomes)} outcomes "
                            f"for {cfg.n_requests} requests")
        failures += [f"serve_mixed: req{o.request.rid} solve key "
                     f"{o.solve_key!r} missing from report.solves"
                     for o in done if o.solve_key not in report.solves]
        good = sum(1 for o in done if o.deadline_met is not False)
        lat = report.latencies()
        counters = report.metrics.counters
        util = report.utilization
        layer = dict.fromkeys(SIM_LAYER_KEYS, 0.0)
        layer.update({
            "serve.wait_p99_s": lat["wait_s"]["p99"],
            "serve.service_p50_s": lat["service_s"]["p50"],
            "serve.batched_frac":
                counters.get("batched_requests", 0) / len(done),
            "serve.util_mean": sum(util.values()) / len(util),
            "serve.shed_frac": len(report.shed()) / len(report.outcomes),
            "serve.unique_solves_frac": len(report.solves) / len(done),
        })
        return Measurement(
            attempted=len(report.outcomes), failures=failures,
            sim={"sim_s": report.duration_s,
                 "sim_p99_s": lat["total_s"]["p99"],
                 "goodput_rps": good / report.duration_s},
            extra={"shed_frac": layer["serve.shed_frac"]},
            layer=layer,
            digests={"report_sha": hashlib.sha256(
                report.to_json_text().encode()).hexdigest()[:16]})

    return Case(run=run, measure=measure)


def ops_device(seed: int) -> Case:
    """Every registered op at size 256 on a 2x4 core grid, checked."""
    from repro import ops as opslib

    _, trim = _inputs(seed)
    # the trim lands on each op's leading extent: matmul rows, FFT
    # pencils, stencil9 rows
    trims = {"matmul": {"m": 256 - trim}, "fft": {"batch": 16 - trim},
             "stencil9": {"ny": 256 - trim}}
    specs = opslib.list_ops()
    problems = [spec.make_problem(256, seed, **trims.get(spec.name, {}))
                for spec in specs]
    devices = [GrayskullDevice(dram_bank_capacity=64 << 20) for _ in specs]

    def run():
        out = []
        for spec, problem, dev in zip(specs, problems, devices):
            try:
                out.append(spec.run(problem, cores=(2, 4), device=dev,
                                    check=True))
            except opslib.OpCheckError as e:
                out.append(e)
        return out

    def measure(results) -> Measurement:
        failures = [f"ops_device: {spec.name}: {r}"
                    for spec, r in zip(specs, results)
                    if isinstance(r, Exception)]
        ok = [r for r in results if not isinstance(r, Exception)]
        return Measurement(
            attempted=len(specs), failures=failures,
            sim=_device_ops_sim([r.kernel_time_s + r.transfer_time_s
                                 for r in ok]),
            extra={"sim_energy_j": sum(r.energy_j for r in ok)},
            layer=_device_layer(devices),
            digests={f"{r.op}_sha": r.output_sha for r in ok})

    return Case(run=run, measure=measure)


WORKLOADS = {f.__name__: f for f in
             (jacobi_grid, cluster_relaunch, serve_mixed, ops_device)}
