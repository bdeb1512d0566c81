"""Workload definitions.

Every input the measured program sees is generated here from the
benchmark's ``--seed``: the source distribution, the sweep's base seed
and the sample of cells fitted through the estimator. This module uses
NumPy only; it never imports the program.
"""

from dataclasses import dataclass

import numpy as np

# The paper's three-symbol evaluation source (rows y, columns x), the
# source the acceptance gate runs on.
DEMO_CHANNEL = [
    [0.90, 0.08, 0.40],
    [0.025, 0.82, 0.05],
    [0.075, 0.10, 0.55],
]

# Concentration of the seeded Dirichlet sources around their base
# channel. High enough that two seeds give sources of the same character
# (cost per run and frontier within a few percent), so the spread of a
# metric over seeds measures the program, not the luck of the draw.
SOURCE_CONCENTRATION = 10000.0


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                # "sweep" or "baselines"
    inner_kind: str          # inner solver for sweep cells and fits
    jobs: int                # worker processes given to run_sweep
    shape: tuple | None      # (|X|, |Y|) of a seeded Dirichlet source; None: demo source
    beta_range: tuple
    alpha_range: tuple
    grid_n: int
    card_z: tuple            # code sizes of the sweep and of the fit cells
    restarts: int            # sweep restarts per (beta, alpha, card_z) cell
    fit_grid_n: int          # fits cover a fit_grid_n x fit_grid_n (beta, alpha) grid ...
    fit_restarts: int        # ... times card_z, with this many seeded restarts per cell


WORKLOADS = {
    w.name: w
    for w in (
        Workload("ridge_demo", "sweep", "ridge", 1, None, (0.1, 10.0), (0.1, 10.0), 8, (2, 3, 4), 2, 8, 3),
        Workload("sparse_wide", "sweep", "sparse_log", 1, (5, 6), (1.0, 10.0), (1.0, 10.0), 4, (2, 3, 4, 5, 6, 7), 1, 3, 4),
        Workload("ridge_demo_jobs2", "sweep", "ridge", 2, None, (0.1, 10.0), (0.1, 10.0), 8, (2, 3, 4), 2, 8, 3),
        Workload("baselines_x8", "baselines", "ridge", 1, (8, 9), (1.0, 10.0), (1.0, 10.0), 8, (2, 3, 4), 1, 6, 8),
    )
}

# Same layers, a few seconds per workload: used by the benchmark's own tests.
TINY = {
    "ridge_demo": dict(grid_n=2, restarts=1, fit_grid_n=2, fit_restarts=1),
    "sparse_wide": dict(grid_n=2, card_z=(2, 3), restarts=1, fit_grid_n=2, fit_restarts=1),
    "ridge_demo_jobs2": dict(grid_n=2, restarts=1, fit_grid_n=2, fit_restarts=1),
    "baselines_x8": dict(shape=(5, 6), grid_n=2, fit_grid_n=2, fit_restarts=1),
}

# Workloads that run the same inputs as another one and differ only in how
# the program is driven.
SAME_INPUTS = {"ridge_demo_jobs2": "ridge_demo"}


def dirichlet_source(rng: np.random.Generator, n_x: int, n_y: int) -> dict:
    """Source around a diagonal-dominant channel: each x mostly emits y = x,
    some y = x + 1, and a little of every other symbol."""
    base = np.full((n_y, n_x), 0.1)
    for x in range(n_x):
        base[x % n_y, x] += 0.6
        base[(x + 1) % n_y, x] += 0.2
    base /= base.sum(axis=0)
    channel = np.stack([rng.dirichlet(SOURCE_CONCENTRATION * base[:, x]) for x in range(n_x)], axis=1)
    p_x = rng.dirichlet(np.full(n_x, SOURCE_CONCENTRATION / n_x))
    return {"p_x": p_x.tolist(), "p_y_given_x": channel.tolist()}


def build_spec(name: str, seed: int, tiny: bool = False) -> dict:
    """Everything one run of workload ``name`` feeds the program, as JSON data."""
    w = WORKLOADS[name]
    if tiny:
        w = Workload(**{**w.__dict__, **TINY[name]})
    rng = np.random.default_rng([seed, list(WORKLOADS).index(SAME_INPUTS.get(name, name))])
    if w.shape is None:
        source = {"p_x": [1.0 / 3.0] * 3, "p_y_given_x": DEMO_CHANNEL}
    else:
        source = dirichlet_source(rng, *w.shape)
    base_seed = int(rng.integers(2**31))
    beta_grid = np.geomspace(*w.beta_range, w.grid_n).tolist()
    alpha_grid = np.geomspace(*w.alpha_range, w.grid_n).tolist()
    # Every cell of the fit grid, so that the latency quantiles do not hang
    # on which slow cells a random subset happens to hold; the seed draws
    # the restarts. At full size there are at least 200 fits, so p95 has
    # ten samples beyond it.
    fit_betas = np.geomspace(*w.beta_range, w.fit_grid_n).tolist()
    fit_alphas = np.geomspace(*w.alpha_range, w.fit_grid_n).tolist()
    fit_cells = [
        [z, b, a, int(rng.integers(2**31))]
        for b in fit_betas
        for a in fit_alphas
        for z in w.card_z
        for _ in range(w.fit_restarts)
    ]
    return {
        "workload": name,
        "seed": seed,
        "kind": w.kind,
        "inner_kind": w.inner_kind,
        "jobs": w.jobs,
        "source": source,
        "beta_grid": beta_grid,
        "alpha_grid": alpha_grid,
        "card_z": list(w.card_z),
        "restarts": w.restarts,
        "base_seed": base_seed,
        "fit_cells": fit_cells,
    }
