"""Stacked transport solver for the free-space norms.

The norm of a balanced functional mu on a finite metric space is the least
cost of a transport plan from mu+ onto mu- (Kantorovich-Rubinstein; Weaver,
*Lipschitz Algebras*, 1999).  `transport` solves a stack of such problems,
each over its own n points and cost matrix, by successive shortest paths:
each round runs one Bellman-Ford over the residual graph of every unfinished
program at once, then augments each program along its own path.

The residual graph has an arc i -> j at cost d(i, j) from every source i
(mu_i > 0) to every target j (mu_j < 0), and an arc j -> i at cost -d(i, j)
against every plan entry y_ij > 0.  A round labels the nodes with path costs
from the sources that still hold mass, takes the wanting target of least
label (the first on a tie) and moves as much as the path allows.  A program
ends when no source holds mass or no target wants any.  Each round along
shortest paths keeps the plan optimal for the mass it has moved.

Rounding can make a zero-cost residual cycle slightly negative, and a
Bellman-Ford that chases it never ends.  So a label, and with it the
predecessor, changes only when the new path is shorter by more than
TOL * max d: the predecessors then form a tree, since a cycle among them
would cost less than -TOL * max d per arc.  TOL is the solver's one
tolerance, and `freenorm._check_witnesses` derives its margins from it.

Every operation is elementwise per program or a min, argmin or comparison
along its own axes, and the cost is summed entry by entry in a fixed order,
so a program's results are bitwise those of a stack of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TOL = 1e-12


class LpError(RuntimeError):
    """A norm program the solver did not finish, or whose plan or potential
    fails its witness check."""


@dataclass(frozen=True)
class Transport:
    """plan[p, i, j] is the mass program p moves from source i to target j,
    cost[p] the plan's cost, and potential[p] the c-transform
    g(x) = min_j (d(x, j) + phi_j) over the targets j of the duals
    phi_j = -label(j) of the last round (0 with no target).  On a metric g
    is 1-Lipschitz and sum_x mu_x g(x) is the cost up to rounding, so the
    two enclose the norm (`freenorm._check_witnesses`)."""

    plan: np.ndarray            # k x n x n
    cost: np.ndarray            # k
    potential: np.ndarray       # k x n


def _labels(arcs: np.ndarray, start: np.ndarray, slack: np.ndarray):
    """Bellman-Ford labels and predecessors over the arc costs arcs[p, u, v]
    (inf where there is no arc), from the nodes of start at label 0.

    Each sweep relaxes every node from the previous labels, via the first u
    attaining the least label(u) + arcs(u, v), when that beats its label by
    more than slack[p], until no label moves.  After n - 1 sweeps a label is
    within n slack of its shortest path, and each later move lowers it by
    more than slack, so n * n + n sweeps bound a run without a negative
    cycle."""
    k, n, _ = arcs.shape
    label = np.where(start, 0.0, np.inf)
    pred = np.full((k, n), -1)
    for _ in range(n * n + n):
        via = label[:, :, None] + arcs
        best = via.min(axis=1)
        better = best < label - slack[:, None]
        if not better.any():
            return label, pred
        pred = np.where(better, via.argmin(axis=1), pred)
        label = np.where(better, best, label)
    raise LpError("transport labels did not settle: the costs hold a negative cycle")


def transport(mu, d) -> Transport:
    """Optimal transport plans from mu+ onto mu- for the stack of balanced
    masses mu (k x n) over the costs d (k x n x n), by successive shortest
    paths; see the module docstring.  Entries of mu that are 0 are neither
    sources nor targets, and masses that do not balance in floating point
    leave their remainder unmoved."""
    mu = np.asarray(mu, dtype=float)
    d = np.asarray(d, dtype=float)
    if mu.ndim != 2 or d.shape != (*mu.shape, mu.shape[1]):
        raise ValueError("need k x n masses and k x n x n costs")
    if not (np.all(np.isfinite(mu)) and np.all(np.isfinite(d))):
        raise ValueError("masses and costs must be finite")
    if np.any(d < 0.0):
        raise ValueError("costs must be nonnegative")
    k, n = mu.shape
    source, target = mu > 0.0, mu < 0.0
    supply = np.where(source, mu, 0.0)
    demand = np.where(target, -mu, 0.0)
    plan = np.zeros((k, n, n))
    forward = np.where(source[:, :, None] & target[:, None, :], d, np.inf)
    backward = -d.transpose(0, 2, 1)
    slack = TOL * d.max(axis=(1, 2), initial=0.0)
    label = np.zeros((k, n))
    live = np.flatnonzero((supply > 0.0).any(axis=1) & (demand > 0.0).any(axis=1))
    for _ in range(n * n + 1):
        if not live.size:
            break
        arcs = np.where(plan[live].transpose(0, 2, 1) > 0.0, backward[live], forward[live])
        lab, pred = _labels(arcs, supply[live] > 0.0, slack[live])
        label[live] = lab
        _augment(plan, supply, demand, live, lab, pred, target[live])
        live = live[(supply[live] > 0.0).any(axis=1) & (demand[live] > 0.0).any(axis=1)]
    else:
        raise LpError(f"transport took more than {n * n + 1} rounds")
    cost = np.zeros(k)
    terms = (plan * d).reshape(k, n * n)
    for s in range(n * n):
        cost += terms[:, s]
    potential = np.where(target[:, None, :], d - label[:, None, :], np.inf).min(
        axis=2, initial=np.inf)
    potential[~target.any(axis=1)] = 0.0
    return Transport(plan, cost, potential)


def _augment(plan, supply, demand, live, label, pred, target) -> None:
    """Move each live program's mass along its path from a source to the
    wanting target of least label, by the largest amount the path allows,
    in place.  A path's arc u -> v runs along a plan entry (u, v) when u is
    a source, and against the entry (v, u) when u is a target."""
    k, n = label.shape
    r = np.arange(k)
    wants = demand[live]
    end = np.where(wants > 0.0, label, np.inf).argmin(axis=1)
    amount = wants[r, end]
    v = end.copy()
    steps = []
    for _ in range(n):
        u = pred[r, v]
        on = np.flatnonzero(u >= 0)
        if not on.size:
            break
        back = target[on, u[on]]
        i = np.where(back, v[on], u[on])
        j = np.where(back, u[on], v[on])
        cancel = np.where(back, plan[live[on], i, j], np.inf)
        amount[on] = np.minimum(amount[on], cancel)
        steps.append((on, i, j, back))
        v[on] = u[on]
    else:
        if (pred[r, v] >= 0).any():
            raise LpError("transport predecessors form a cycle")
    amount = np.minimum(amount, supply[live, v])
    for on, i, j, back in steps:
        plan[live[on], i, j] += np.where(back, -amount[on], amount[on])
    supply[live, v] -= amount
    demand[live, end] -= amount
