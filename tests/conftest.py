"""Shared test helpers: random positioning instances with sane conditioning."""

import numpy as np

from diffpos.geometry import RigidTransform, WindowEdge
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
