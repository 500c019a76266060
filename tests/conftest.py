"""Shared test helpers: random positioning instances with sane conditioning,
and D-NLS and bound problems given as objects, passed to the edge-id API."""

from dataclasses import dataclass

import numpy as np

from diffpos.geometry import RigidTransform, WindowEdge, edge_table
from diffpos.positioning import _pack, dnls_ladder, peb_batch
from scalar_edge import approx_diffraction_solution


def random_positioning_instance(rng, n_anchors=4, interior_margin=1e-3):
    """Random receiver, anchors on two facades, one window edge per anchor.

    Returns (alpha_true, anchors (M,3), edges tuple). Instances are resampled
    until every anchor's diffraction point is strictly interior on its edge,
    keeping the measurement model smooth around alpha_true.
    """
    while True:
        alpha = np.array([
            rng.uniform(2.0, 18.0), rng.uniform(4.0, 16.0), rng.uniform(3.0, 12.0)])
        anchors = []
        edges = []
        for j in range(n_anchors):
            front = j % 2 == 0
            facade_y = 0.0 if front else 20.0
            outside = rng.uniform(8.0, 30.0)
            anchor = np.array([
                rng.uniform(-5.0, 25.0),
                facade_y - outside if front else facade_y + outside,
                rng.uniform(0.0, 7.0),
            ])
            center = 0.5 * (anchor[0] + alpha[0]) + rng.uniform(-1.0, 1.0)
            half_span = rng.uniform(2.0, 5.0)
            w = rng.uniform(0.8, 2.5)
            z_e = alpha[2] + w / 2.0 + rng.uniform(-1.0, 1.0)
            frame = RigidTransform(np.eye(3), np.array([0.0, -facade_y, 0.0]))
            edges.append(WindowEdge(center - half_span, center + half_span, z_e, w, frame))
            anchors.append(anchor)
        anchors = np.array(anchors)
        edges = tuple(edges)

        ok = True
        for j in range(n_anchors):
            sol = approx_diffraction_solution(anchors[j], alpha, edges[j])
            if sol.endpoint or not interior_margin < sol.lam < 1.0 - interior_margin:
                ok = False
                break
        if ok:
            return alpha, anchors, edges


@dataclass
class Problem:
    """A D-NLS problem as objects: the anchors, each with its measured
    range and the window edge of its diffraction model."""

    anchors: np.ndarray  # (M, 3)
    ranges: np.ndarray  # (M,)
    edges: tuple  # (M,) WindowEdge

    def __post_init__(self):
        self.anchors = np.asarray(self.anchors, dtype=float).reshape(-1, 3)
        self.ranges = np.asarray(self.ranges, dtype=float).reshape(-1)

    def __len__(self):
        return len(self.anchors)


def indexed(anchor_lists, edge_lists):
    """(table, anchors, anchor ids, edge ids) of problems given as per-anchor
    positions and WindowEdges: every distinct anchor (by value) and edge once,
    in order of first use, and each problem's ids as a list."""
    anchors, edges = {}, {}
    anchor_ids = [[anchors.setdefault(np.asarray(a, dtype=float).tobytes(), len(anchors))
                   for a in problem] for problem in anchor_lists]
    edge_ids = [[edges.setdefault(e, len(edges)) for e in problem] for problem in edge_lists]
    points = np.array([np.frombuffer(key) for key in anchors]).reshape(-1, 3)
    return edge_table(list(edges)), points, anchor_ids, edge_ids


def pack(problems):
    """The gathered ``positioning._Rows`` of D-NLS problems of one anchor count."""
    table, anchors, anchor_ids, edge_ids = indexed([p.anchors for p in problems],
                                                   [p.edges for p in problems])
    return _pack(table, table.to_local(anchors), anchor_ids, edge_ids,
                 np.array([p.ranges for p in problems]))


def ladder(problems, starts, bounds):
    """``dnls_ladder`` results of D-NLS problems, in order: one call per
    anchor set, which the results do not depend on."""
    table, anchors, anchor_ids, edge_ids = indexed([p.anchors for p in problems],
                                                   [p.edges for p in problems])
    starts = np.asarray(starts, dtype=float).reshape(-1, 3)
    groups = {}
    for i, ids in enumerate(anchor_ids):
        groups.setdefault(tuple(ids), []).append(i)
    results = [None] * len(problems)
    for ids, rows in groups.items():
        batch = dnls_ladder(table, anchors[list(ids)], [edge_ids[i] for i in rows],
                            [problems[i].ranges for i in rows], starts[rows], bounds)
        for i, result in zip(rows, batch):
            results[i] = result
    return results


def bounds_of(problems):
    """``peb_batch`` of bound problems given as (position, anchors, edges,
    linear SNRs, beta^2) tuples."""
    table, anchors, anchor_ids, edge_ids = indexed([p[1] for p in problems],
                                                   [p[2] for p in problems])
    return peb_batch(table, anchors, [(p[0], a, e, *p[3:])
                                      for p, a, e in zip(problems, anchor_ids, edge_ids)])
