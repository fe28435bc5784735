"""Host-time attribution of a profiled run to the repo's layers.

A layer is a package ``repro.<layer>``.  :func:`attribute` reads the
``cProfile`` statistics of the timed section and credits each function's
self time to the layer whose source file defines it; functions outside
those packages (NumPy, builtins, the standard library, other ``repro``
packages) count as ``other``.  It also reads the call count and
inclusive seconds of the boundary functions named in :data:`BOUNDARIES`.

cProfile charges a fixed cost to every call, so call-heavy layers
(``lint``'s symbolic tracer, ``sim``'s resume path) read somewhat larger
than they are untraced; the traced run reports its own overhead as
``trace_overhead_frac``.
"""

from __future__ import annotations

import os
import pstats
from typing import Dict

LAYERS = ("sim", "ttmetal", "arch", "dtypes", "lint", "core", "cluster",
          "serve", "ops", "cpu", "perfmodel", "parallel")

#: (metric, file under src/repro, function, "calls" or inclusive "s")
BOUNDARIES = (
    ("lint.lint_program.calls", "lint/__init__.py", "lint_program", "calls"),
    ("lint.lint_program.s", "lint/__init__.py", "lint_program", "s"),
    ("ttmetal.EnqueueProgram.calls", "ttmetal/host.py", "EnqueueProgram",
     "calls"),
    ("ttmetal.Finish.s", "ttmetal/host.py", "Finish", "s"),
    ("ttmetal.EnqueueReadBuffer.calls", "ttmetal/host.py",
     "EnqueueReadBuffer", "calls"),
    ("ttmetal.EnqueueWriteBuffer.calls", "ttmetal/host.py",
     "EnqueueWriteBuffer", "calls"),
    ("dtypes.f32_to_bits.calls", "dtypes/bf16.py", "f32_to_bits", "calls"),
    ("dtypes.bits_to_f32.calls", "dtypes/bf16.py", "bits_to_f32", "calls"),
    ("serve.postpass_s", "serve/jobs.py", "run_solve_postpass", "s"),
)

#: metric names :func:`attribute` returns, in report order
METRICS = (*(f"{layer}.self_s" for layer in (*LAYERS, "other")),
           *(b[0] for b in BOUNDARIES))


def attribute(stats: pstats.Stats, src_root: str) -> Dict[str, float]:
    """Layer self seconds and boundary counts from profiled ``stats``.

    ``src_root`` is the directory holding the ``repro`` package; only
    files under it belong to a layer.
    """
    pkg = os.path.join(os.path.realpath(src_root), "repro") + os.sep
    where: Dict[str, tuple] = {}

    def locate(filename: str):
        if filename not in where:
            real = os.path.realpath(filename)
            rel = real[len(pkg):] if real.startswith(pkg) else None
            layer = rel.split(os.sep)[0].removesuffix(".py") if rel else None
            where[filename] = (layer if layer in LAYERS else "other",
                               rel.replace(os.sep, "/") if rel else None)
        return where[filename]

    sites: Dict[tuple, list] = {}
    for metric, path, func, kind in BOUNDARIES:
        sites.setdefault((path, func), []).append((metric, kind))
    out = dict.fromkeys(METRICS, 0.0)
    for (filename, _, func), (_, ncalls, self_s, incl_s, _) in \
            stats.stats.items():
        layer, rel = locate(filename)
        out[f"{layer}.self_s"] += self_s
        for metric, kind in sites.get((rel, func), ()):
            out[metric] += ncalls if kind == "calls" else incl_s
    return out
