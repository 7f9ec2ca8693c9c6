"""
Growth trends over n
====================

How the giant-component diameter, the second-largest component, and the
longest induced path component scale as n doubles. All three grow
polylogarithmically; the script prints per-n medians so the trend is
visible without plotting.
"""

import math

import numpy as np

from rhglab.analysis import (
    component_diameter,
    component_vertices,
    connected_components,
    induced_path_components,
)
from rhglab.geometry import ModelParams
from rhglab.graphs import build_fast
from rhglab.sampler import sample_uniform_model

SEEDS = 5

print(f"{'n':>7} {'ln n':>6} {'diam':>5} {'second':>7} {'path':>5}")
for k in range(10, 14):
    n = 2 ** k
    params = ModelParams(alpha=0.75, C=0.0, n=n)
    diams, seconds, paths = [], [], []
    for seed in range(SEEDS):
        g = build_fast(sample_uniform_model(params, seed))
        stats = connected_components(g)
        giant = component_vertices(stats, stats.giant_label)
        diam, _ = component_diameter(g, giant)
        diams.append(diam)
        seconds.append(stats.second_size)
        lens = [p.length for p in induced_path_components(g, stats=stats) if p.length >= 1]
        paths.append(max(lens) if lens else 0)
    print(f"{n:>7} {math.log(n):>6.2f} {np.median(diams):>5.1f} "
          f"{np.median(seconds):>7.1f} {np.median(paths):>5.1f}")

print("\ndiameter and path lengths track ln n; second components stay small")
