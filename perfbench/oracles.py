"""Reference values the benchmark checks tipsychase against.

Everything here is computed without the library's own algebra: plain
numpy solves on a transition matrix, an independent move model for the
torus quotient, and a direct read of the bundled reference CSV files.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np


def transient_measures(P, absorbing, rounds=0):
    """Expected rounds and survival to ``rounds`` for every transient state.

    Returns (transient indices, E, G) with E from ``numpy.linalg.solve`` on
    (I - T) E = 1 and G = T^rounds 1 by repeated mat-vecs.
    """
    P = np.asarray(P, dtype=float)
    keep = [i for i in range(P.shape[0]) if i not in set(absorbing)]
    T = P[np.ix_(keep, keep)]
    E = np.linalg.solve(np.eye(len(keep)) - T, np.ones(len(keep)))
    G = np.ones(len(keep))
    for _ in range(rounds):
        G = T @ G
    return keep, E, G


def survival_curve(transients, rounds):
    """G_M for M = 0..rounds and every start, from the per-round matrices.

    ``transients[m - 1]`` is T_m; row d of the result's column M is
    e_d . T_1 ... T_M . 1.
    """
    n = transients[0].shape[0]
    rows = np.eye(n)
    curve = [rows.sum(axis=1)]
    for m in range(rounds):
        rows = rows @ transients[m]
        curve.append(rows.sum(axis=1))
    return np.column_stack(curve)


def _gap(a, b, size):
    d = abs(a - b)
    return min(d, size - d)


def torus_quotient(m, n, c, r, t):
    """Distance-class chain of the m x n torus under the standard move rules.

    Classes are the sorted per-axis gaps "(a,b)", a >= b, plus "0" for
    capture.  Each row is aggregated from one representative pair (cop at
    the origin), with the rules written out afresh: the sober cop steps to
    a neighbour nearest the robber, the sober robber to a neighbour
    farthest from the cop (staying put when every neighbour is nearer),
    and a tipsy move (t/2 for each player) goes to a uniform neighbour.
    Returns (labels, P).
    """

    def dist(u, v):
        return _gap(u[0], v[0], m) + _gap(u[1], v[1], n)

    def nbrs(u):
        x, y = u
        return [((x + 1) % m, y), ((x - 1) % m, y), (x, (y + 1) % n), (x, (y - 1) % n)]

    def label(cop, rob):
        if cop == rob:
            return "0"
        a, b = _gap(cop[0], rob[0], m), _gap(cop[1], rob[1], n)
        return f"({max(a, b)},{min(a, b)})"

    gaps = sorted(
        {(a, b) for a in range(m // 2 + 1) for b in range(n // 2 + 1) if a >= b and a},
        key=lambda ab: (-ab[0], -ab[1]),
    )
    labels = [f"({a},{b})" for a, b in gaps] + ["0"]
    index = {lab: k for k, lab in enumerate(labels)}
    P = np.zeros((len(labels), len(labels)))
    P[-1, -1] = 1.0
    for k, (a, b) in enumerate(gaps):
        cop, rob = (0, 0), (a, b)
        moves = []  # (weight, new cop, new robber)
        near = min(dist(v, rob) for v in nbrs(cop))
        best = [v for v in nbrs(cop) if dist(v, rob) == near]
        moves += [(c / len(best), v, rob) for v in best]
        moves += [(t / 8, v, rob) for v in nbrs(cop)]
        here = dist(cop, rob)
        if all(dist(cop, v) < here for v in nbrs(rob)):
            moves.append((r, cop, rob))
        else:
            far = max(dist(cop, v) for v in nbrs(rob))
            best = [v for v in nbrs(rob) if dist(cop, v) == far]
            moves += [(r / len(best), cop, v) for v in best]
        moves += [(t / 8, cop, v) for v in nbrs(rob)]
        for w, new_cop, new_rob in moves:
            P[k, index[label(new_cop, new_rob)]] += w
    return labels, P


def torus_reference(m, n, c, r, t, start, rounds):
    """E and G_rounds from class ``start`` on the torus quotient."""
    labels, P = torus_quotient(m, n, c, r, t)
    keep, E, G = transient_measures(P, {len(labels) - 1}, rounds)
    i = keep.index(labels.index(start))
    return float(E[i]), float(G[i])


def _last_digit_unit(printed):
    """One unit in the last printed digit of a number such as '914.8' or '6E-5'."""
    mantissa, _, exponent = printed.strip().lower().partition("e")
    return 10.0 ** (int(exponent or 0) - len(mantissa.partition(".")[2]))


def cell_tolerance(table_id, measure, flag, printed, target):
    """A cell's tolerance, restated from the tables' documentation.

    The four distance-varying tables allow one unit in the last printed
    digit (1e-9 for a cell flagged exact); tree3.1 allows 0.01 on E and
    5e-4 on R and C; friendship7.1 1e-3 on G and 5e-3 on E; torus8.1 0.01
    on every cell; the rest 5e-3 on G and a relative 5e-3 on E.
    """
    if table_id.startswith(("dist10.", "tree10.")):
        return 1e-9 if flag == "exact" else _last_digit_unit(printed)
    if table_id == "tree3.1":
        return 0.01 if measure == "E" else 5e-4
    if table_id == "friendship7.1":
        return 1e-3 if measure == "G" else 5e-3
    if table_id == "torus8.1":
        return 0.01
    return 5e-3 if measure == "G" else 5e-3 * abs(target)


def table_targets(data_dir: Path, table_id: str):
    """{(measure, rounds, start, params): (target, tolerance)} from a reference CSV.

    The target is the printed value, or the derived value for a cell
    flagged ``erratum``; "inf" reads as math.inf.
    """
    text = (data_dir / f"{table_id}.csv").read_text("utf-8")
    rows = csv.DictReader(line for line in text.splitlines() if not line.startswith("#"))
    out = {}
    for row in rows:
        rounds = int(row["rounds"]) if row["rounds"] else None
        key = (row["measure"], rounds, row["start"], row["params"])
        raw = row["derived"] if row["flag"] == "erratum" else row["value"]
        target = math.inf if raw == "inf" else float(raw)
        tol = 0.0 if math.isinf(target) else cell_tolerance(
            table_id, row["measure"], row["flag"], raw, target)
        out[key] = (target, tol)
    return out
