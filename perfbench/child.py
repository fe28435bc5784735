"""One cold run of one workload, in the interpreter that runs this file.

    python3 perfbench/child.py WORKLOAD SEED [--profile]

``run.py`` starts this script once per repetition with ``PYTHONPATH``
pointing at the checkout's ``src``.  It times set-up (imports, problem
and device construction) and the workload's timed section separately,
checks the answers, and prints one JSON object as its last line.  It
also times :func:`reference_loop` three times just before and three
times just after the timed section, so that ``run.py`` can scale host
times to a reference host speed.  With ``--profile`` the timed section
runs under ``cProfile`` and the object also carries the layer
attribution of :mod:`layers`.
"""

import time

T_START = time.perf_counter()

import heapq  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402


def reference_loop() -> float:
    """Seconds taken by a fixed mix of the work the simulator's host time
    is made of: generators resumed in heap order, as the event loop
    does, and small NumPy casts, as the BF16 tile path does.  It uses no
    ``repro`` code, so a change to the repo cannot move it; only the
    host's speed can."""
    def process(i):
        t = 0.0
        while True:
            t += 0.37
            yield t + i

    t0 = time.perf_counter()
    procs = [process(i) for i in range(2000)]
    heap = [(next(p), i) for i, p in enumerate(procs)]
    heapq.heapify(heap)
    tile = np.arange(1024, dtype=np.float32)
    for step in range(20_000):
        _, i = heapq.heappop(heap)
        heapq.heappush(heap, (procs[i].send(None), i))
        if step % 20 == 0:
            (tile * np.float32(0.25) + tile).view(np.uint32) >> 16
    return time.perf_counter() - t0


def main(argv) -> int:
    name, seed, profile = argv[0], int(argv[1]), argv[2:] == ["--profile"]
    import workloads

    import repro
    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    if not os.path.realpath(repro.__file__).startswith(src + os.sep):
        raise RuntimeError(f"imported repro from {repro.__file__}, "
                           f"not from the checkout's src")

    case = workloads.WORKLOADS[name](seed)
    setup_s = time.perf_counter() - T_START

    calib = [reference_loop() for _ in range(3)]
    prof = None
    if profile:
        import cProfile
        prof = cProfile.Profile()
        prof.enable()
    t0 = time.perf_counter()
    out = case.run()
    wall_s = time.perf_counter() - t0
    if prof is not None:
        prof.disable()
    # the median of short samples on both sides of the timed section
    # ignores a momentary stall of the host during one of them
    calib_s = statistics.median(calib + [reference_loop() for _ in range(3)])

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    m = case.measure(out)
    doc = {
        "wall_s": wall_s,
        "setup_s": setup_s,
        "calib_s": calib_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": m.attempted,
        "failures": m.failures,
        "sim": m.sim,
        "extra": m.extra,
        "layer": m.layer,
        "digests": m.digests,
    }
    if prof is not None:
        import pstats

        import layers
        doc["profile"] = layers.attribute(pstats.Stats(prof), src)
    print(json.dumps(doc, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
