"""Shared test helpers: window edges as tables, random positioning instances
with sane conditioning, and D-NLS and bound problems given as anchors and
edge ids into a table, passed to the edge-id API through one joined table;
and PDPs written as the JSON records the dataset ingest reads."""

import json
from dataclasses import dataclass

import numpy as np

from diffpos.geometry import EdgeTable, edge_table
from diffpos.positioning import LadderRows, _pack, dnls_ladder, peb_batch
from scalar_edge import approx_diffraction_solution


def edges_of(x1, x2, z_e, w, rotation=np.eye(3), translation=np.zeros(3)) -> EdgeTable:
    """The edge table of columns, or of scalars for one edge, broadcast
    together with the frames: every edge has the frame ``rotation``,
    ``translation`` unless they are given per edge."""
    rotation, translation = np.asarray(rotation), np.asarray(translation)
    *columns, _, _ = np.broadcast_arrays(*np.atleast_1d(x1, x2, z_e, w), rotation[..., 0, 0],
                                         translation[..., 0])
    n = len(columns[0])
    return edge_table(np.broadcast_to(rotation, (n, 3, 3)), np.broadcast_to(translation, (n, 3)),
                      *columns)


def random_positioning_instance(rng, n_anchors=4, interior_margin=1e-3):
    """Random receiver, anchors on two facades, one window edge per anchor.

    Returns (alpha_true, anchors (M,3), table), edge j of ``table`` being
    anchor j's. Instances are resampled until every anchor's diffraction
    point is strictly interior on its edge, keeping the measurement model
    smooth around alpha_true.
    """
    while True:
        alpha = np.array([
            rng.uniform(2.0, 18.0), rng.uniform(4.0, 16.0), rng.uniform(3.0, 12.0)])
        anchors = []
        columns = []
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
            columns.append((center - half_span, center + half_span, z_e, w, -facade_y))
            anchors.append(anchor)
        anchors = np.array(anchors)
        x1, x2, z_e, w, shift = np.array(columns).T
        table = edges_of(x1, x2, z_e, w,
                         translation=np.stack([np.zeros(n_anchors), shift, np.zeros(n_anchors)], 1))

        ok = True
        for j in range(n_anchors):
            sol = approx_diffraction_solution(anchors[j], alpha, table, j)
            if sol.endpoint or not interior_margin < sol.lam < 1.0 - interior_margin:
                ok = False
                break
        if ok:
            return alpha, anchors, table


@dataclass
class Problem:
    """A D-NLS problem: the anchors, each with its measured range and the
    id in ``table`` of the window edge of its diffraction model; anchor j
    has edge j unless ``edges`` gives the ids."""

    anchors: np.ndarray  # (M, 3)
    ranges: np.ndarray  # (M,)
    table: EdgeTable
    edges: np.ndarray = None  # (M,) edge ids into table

    def __post_init__(self):
        self.anchors = np.asarray(self.anchors, dtype=float).reshape(-1, 3)
        self.ranges = np.asarray(self.ranges, dtype=float).reshape(-1)
        self.edges = np.arange(len(self.anchors)) if self.edges is None \
            else np.asarray(self.edges).reshape(-1)

    def __len__(self):
        return len(self.anchors)


def joined(tables, edge_ids=()):
    """One table of ``tables``, each distinct table (by identity) once in
    order of first use, and the ids ``edge_ids`` into each, if any, into it."""
    distinct = list({id(t): t for t in tables}.values())
    offsets = dict(zip(map(id, distinct), np.cumsum([0] + [len(t.x1) for t in distinct])))
    table = edge_table(*(np.concatenate(column) for column in zip(*distinct)))
    return table, [offsets[id(t)] + np.asarray(ids) for t, ids in zip(tables, edge_ids)]


def pack(problems):
    """The gathered ``positioning._Rows`` of D-NLS problems of one anchor count."""
    table, edge_ids = joined([p.table for p in problems], [p.edges for p in problems])
    anchors = np.concatenate([p.anchors for p in problems])
    return _pack(table, table.to_local(anchors), np.arange(len(anchors)).reshape(len(problems), -1),
                 edge_ids, np.array([p.ranges for p in problems]))


def ladder(problems, starts, bounds):
    """``dnls_ladder`` columns of D-NLS problems, in order: one call per
    anchor set, which the results do not depend on."""
    table, edge_ids = joined([p.table for p in problems], [p.edges for p in problems])
    starts = np.asarray(starts, dtype=float).reshape(-1, 3)
    groups = {}
    for i, problem in enumerate(problems):
        groups.setdefault(problem.anchors.tobytes(), []).append(i)
    n = len(problems)
    out = LadderRows(np.empty((n, 3)), np.empty(n, dtype=int), np.empty(n, dtype=int))
    for rows in groups.values():
        batch = dnls_ladder(table, problems[rows[0]].anchors, [edge_ids[i] for i in rows],
                            [problems[i].ranges for i in rows], starts[rows], bounds)
        for column, values in zip(out, batch):
            column[rows] = values
    return out


def bounds_of(problems):
    """``peb_batch`` of bound problems given as (position, anchors, table,
    edge ids, linear SNRs, beta^2) tuples: the anchors of every problem in
    one array, each problem's edge ids and SNRs in its own anchors' columns
    and -1 and NaN in the others."""
    table, edge_ids = joined([p[2] for p in problems], [p[3] for p in problems])
    anchors = [np.asarray(p[1], dtype=float).reshape(-1, 3) for p in problems]
    first = np.cumsum([0] + [len(a) for a in anchors])
    ids = np.full((len(problems), first[-1]), -1)
    snr = np.full(ids.shape, np.nan)
    for i, (p, e) in enumerate(zip(problems, edge_ids)):
        ids[i, first[i]:first[i + 1]] = e
        snr[i, first[i]:first[i + 1]] = p[4]
    return peb_batch(table, np.concatenate(anchors), [p[0] for p in problems], ids, snr,
                     [p[5] for p in problems])


def write_dataset(pdps, path) -> int:
    """Write (rx_id, PDP) pairs as the line-delimited JSON records
    ``ingest_dataset`` reads (schema ``mpc-dataset/1``); returns the record
    count."""
    lines = [json.dumps({"schema": "mpc-dataset/1"})]
    for rx_id, pdp in pdps:
        for m in pdp.mpcs:
            record = {"anchor_id": m.anchor_id, "rx_id": rx_id,
                      "rx_xyz": [pdp.rx.x, pdp.rx.y, pdp.rx.z],
                      "interactions": "-".join(("Tx", *m.interactions, "Rx")),
                      "path_length_m": m.path_length_m, "rx_power_dbm": m.rx_power_dbm,
                      "tof_s": m.tof_s}
            if m.edge_id is not None:
                record["edge_id"] = m.edge_id
            lines.append(json.dumps(record))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return len(lines) - 1
