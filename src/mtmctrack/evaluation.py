"""Identity-level and CLEAR tracking metrics.

The identity measures come from a global truth-to-result matching: every
ground-truth identity is paired with at most one predicted identity so that
the pairs co-locate in as many (camera, frame) keys as possible. That one
rectangular matching over the n_truth x n_predicted overlap counts also
leaves the fewest misses and false positives, and IDP/IDR/IDF1 are read off
its matched counts. The CLEAR pass matches boxes frame by frame with a
carry-over preference and counts FP/FN/identity switches.

Both metrics read one join on (camera, frame) of two ``TrackTable``s,
``join_tracks``, which a caller of both builds once and passes to each. It
owns the row contract (one row per identity per camera and frame) and
the co-location rule (IoU at or above the threshold). The join sorts the
rows of both tables with one stable ``np.lexsort`` (by camera and frame,
truth before prediction, then identity) and finds a repeated row by
comparing neighbours. It batches consecutive keys into chunks of at most
``CHUNK_PAIRS`` truth x predicted pairs (a larger key is a chunk of its
own) and scores each chunk with one ``core.iou_aligned`` pass, the
package's one IoU formula. Its entries do not depend on their neighbours,
so the chunking changes no overlap. The identity measures count the hits
into the overlap array with one ``np.bincount``; the CLEAR pass takes the
hits of every key where no row co-locates with two rows as its matching,
solves a matching only for the other keys, and counts the misses, false
positives and switches over all matched pairs by array passes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .assignment import hungarian
from .core import FORBIDDEN, TrackTable, iou_aligned

# Truth x predicted pairs scored per NumPy pass: keys are batched until the
# next would pass this, so the pair arrays stay small whatever the file size.
# At 4,096 each per-pair temporary is 32 KiB. At 16,384, eval of a 40-id,
# 1,800-frame scene ran about 30 % slower than at 4,096 on a 2-vCPU VM:
# every chunk's larger temporaries were fresh memory.
CHUNK_PAIRS = 4096


@dataclass(frozen=True)
class IdMeasureReport:
    idtp: int
    idfp: int
    idfn: int
    idf1: float
    idp: float
    idr: float


@dataclass(frozen=True)
class ClearReport:
    mota: float
    ids: int
    fp: int
    fn: int


def _ratio(num: float, den: float) -> float:
    # Nothing demanded, nothing wrong: an empty denominator scores perfect.
    return num / den if den > 0 else 1.0


@dataclass(frozen=True, slots=True)
class TrackJoin:
    """The (camera, frame) join of the truth table ``gt`` and the predicted
    table ``pred`` at ``iou_threshold``.

    ``rows`` holds the rows of both tables in join order: by camera and
    frame, then the truth rows before the predicted ones, each by identity.
    Key ``k`` starts at row ``first[k]`` with ``n[k]`` truth rows, followed
    by ``m[k]`` predicted rows. ``hit_g`` and ``hit_p`` are the join-order
    rows of every truth x predicted pair of a key whose boxes co-locate,
    ``hit_iou`` its IoU, in key order and row-major within a key."""

    gt: TrackTable
    pred: TrackTable
    iou_threshold: float
    rows: TrackTable
    first: np.ndarray
    n: np.ndarray
    m: np.ndarray
    hit_g: np.ndarray
    hit_p: np.ndarray
    hit_iou: np.ndarray


def join_tracks(gt: TrackTable, pred: TrackTable, iou_threshold: float) -> TrackJoin:
    """The join that both metrics read: one stable ``np.lexsort`` of both
    tables, a repeated row found by comparing neighbours, and the pairs of
    each key scored chunk by chunk.

    Two rows of one identity in one (camera, frame), on either side,
    violate the row contract; the error names the first repeat in file
    order, the truth's before the prediction's.
    """
    if not 0.0 < iou_threshold < 1.0:
        raise ValueError("iou_threshold must lie in (0, 1)")
    both = TrackTable.concatenate((gt, pred))
    side = np.repeat(np.array([0, 1], dtype=np.int8), (len(gt), len(pred)))
    order = np.lexsort((both.identity, side, both.frame, both.camera))
    columns = (both.camera, both.frame, both.identity, both.boxes)
    rows = TrackTable(*(np.take(column, order, axis=0) for column in columns))
    side = side[order]
    same_key = (rows.camera[1:] == rows.camera[:-1]) & (rows.frame[1:] == rows.frame[:-1])
    repeat = same_key & (side[1:] == side[:-1]) & (rows.identity[1:] == rows.identity[:-1])
    if repeat.any():
        # The sort is stable, so a repeat comes after the rows it repeats,
        # and every truth row has a smaller index than a predicted row.
        k = int(order[1:][repeat].min())
        raise ValueError(
            f"duplicate row for identity {both.identity[k]} at camera "
            f"{both.camera[k]} frame {both.frame[k]} in the "
            f"{'truth' if k < len(gt) else 'prediction'}"
        )
    first = np.flatnonzero(np.concatenate(([True], ~same_key))[: len(rows)])
    ends = np.append(first, len(rows))[1:]
    truth_before = np.concatenate(([0], np.cumsum(side == 0)))
    n = truth_before[ends] - truth_before[first]
    m = ends - first - n
    no_hits = (np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp), np.empty(0))
    chunks = list(_score_chunks(rows.boxes, first, n, m, iou_threshold)) or [no_hits]
    hits = (np.concatenate(column) for column in zip(*chunks))
    return TrackJoin(gt, pred, iou_threshold, rows, first, n, m, *hits)


def _join_of(gt, pred, iou_threshold: float, join: Optional[TrackJoin]) -> TrackJoin:
    """``join`` if it is the join of these tables at this threshold, a new
    join if it is None."""
    if join is None:
        return join_tracks(gt, pred, iou_threshold)
    if join.gt is not gt or join.pred is not pred or join.iou_threshold != iou_threshold:
        raise ValueError("join was built from other tables or another IoU threshold")
    return join


def _score_chunks(boxes, first, n, m, iou_threshold: float):
    """Score every truth x predicted pair of each key in one
    ``iou_aligned`` pass per chunk of keys, and yield each chunk's
    ``(hit_g, hit_p, hit_iou)`` as ``TrackJoin`` holds them. A chunk takes keys
    in order while its pairs stay within ``CHUNK_PAIRS``; a larger key is
    a chunk of its own."""
    pairs_before = np.concatenate(([0], np.cumsum(n * m)))
    truth_before = np.concatenate(([0], np.cumsum(n)))
    # Per truth row, key by key: its join-order row, its key's predicted
    # row count and the join-order row of its key's first predicted row.
    truth_row = np.repeat(first - truth_before[:-1], n) + np.arange(truth_before[-1])
    reps_of = np.repeat(m, n)
    p_first_of = np.repeat(first + n, n)
    a = 0
    while a < len(first):
        b = int(np.searchsorted(pairs_before, pairs_before[a] + CHUNK_PAIRS, side="right")) - 1
        b = max(b, a + 1)
        total = int(pairs_before[b] - pairs_before[a])
        if total:
            t = slice(truth_before[a], truth_before[b])
            reps = reps_of[t]
            # Each truth row pairs with the predicted rows of its key, in
            # order, so the pairs of a key run row-major.
            pair_first = np.cumsum(reps) - reps
            p_at = np.arange(total) + np.repeat(p_first_of[t] - pair_first, reps)
            g_at = np.repeat(truth_row[t], reps)
            # np.repeat and np.take copy rows several times faster than
            # fancy indexing does.
            overlaps = iou_aligned(np.take(boxes, g_at, axis=0), np.take(boxes, p_at, axis=0))
            hit = np.flatnonzero(overlaps >= iou_threshold)
            yield g_at[hit], p_at[hit], overlaps[hit]
        a = b


def id_measures(
    gt: TrackTable,
    pred: TrackTable,
    iou_threshold: float = 0.5,
    *,
    join: Optional[TrackJoin] = None,
) -> IdMeasureReport:
    """IDF1/IDP/IDR from the optimal global identity matching.

    Boxes co-locate when their IoU reaches the threshold. ``overlap[g, p]``
    counts the (camera, frame) keys where truth identity ``g`` and
    predicted identity ``p`` co-locate, and the one-to-one pairing with the
    largest total overlap gives IDTP. Every pairing is allowed, so the
    Hungarian solver pairs min(n_truth, n_pred) identities, and minimising
    the sum of ``most - overlap`` over them maximises the total overlap.
    Ties change which identities pair, never IDTP. ``join``, when given,
    must be ``join_tracks(gt, pred, iou_threshold)``.
    """
    join = _join_of(gt, pred, iou_threshold, join)
    gt_ids = np.unique(gt.identity)
    pred_ids = np.unique(pred.identity)
    shape = (len(gt_ids), len(pred_ids))
    cells = np.searchsorted(gt_ids, join.rows.identity[join.hit_g]) * shape[1]
    cells += np.searchsorted(pred_ids, join.rows.identity[join.hit_p])
    overlap = np.bincount(cells, minlength=shape[0] * shape[1]).reshape(shape)
    result = hungarian(overlap.max(initial=0) - overlap)
    idtp = sum(int(overlap[r, c]) for r, c in result.matched_pairs)
    idfn = len(gt) - idtp
    idfp = len(pred) - idtp
    return IdMeasureReport(
        idtp=idtp,
        idfp=idfp,
        idfn=idfn,
        idf1=_ratio(2 * idtp, 2 * idtp + idfp + idfn),
        idp=_ratio(idtp, idtp + idfp),
        idr=_ratio(idtp, idtp + idfn),
    )


def clear_metrics(
    gt: TrackTable,
    pred: TrackTable,
    iou_threshold: float = 0.5,
    *,
    join: Optional[TrackJoin] = None,
) -> ClearReport:
    """MOTA, identity switches, FP and FN via frame-by-frame matching.

    Within each (camera, frame) boxes are matched by Hungarian on 1 - IoU,
    gated at the threshold; pairings that continue the previous association
    of a truth identity are preferred over cheaper fresh ones. A switch is
    a matched truth box whose predicted identity differs from that truth
    identity's previous pairing in the same camera. ``join``, when given,
    must be ``join_tracks(gt, pred, iou_threshold)``.

    Only a key where some row co-locates with two or more rows has a
    choice, and only such a key builds a cost matrix and calls
    ``hungarian``, in key order. In every other key, one-sided keys and
    keys without a co-locating pair included, the co-locating pairs are the
    only maximal matching whatever their costs, so they are taken as
    matched without a solve. The switches are then counted over all matched
    pairs at once, in key order per camera and truth identity.
    """
    join = _join_of(gt, pred, iou_threshold, join)
    rows, hit_g, hit_p = join.rows, join.hit_g, join.hit_p
    # The hits run in key order, so each key's hits are one slice.
    hit_key = np.searchsorted(join.first, hit_g, side="right") - 1
    hits_of_row = np.bincount(np.concatenate((hit_g, hit_p)), minlength=len(rows))
    choice = np.unique(hit_key[(hits_of_row[hit_g] > 1) | (hits_of_row[hit_p] > 1)])
    is_choice = np.zeros(len(join.first), dtype=bool)
    is_choice[choice] = True
    matched = ~is_choice[hit_key]

    hit_cam = rows.camera[hit_g].tolist()
    hit_gid = rows.identity[hit_g].tolist()
    hit_pid = rows.identity[hit_p].tolist()
    hit_iou = join.hit_iou.tolist()
    last_pair: dict[tuple[int, int], int] = {}  # (camera, gt id) -> pred id
    done = 0  # last_pair holds the matches among the hits before this one
    for g0, n_k, m_k, start, end in zip(
        join.first[choice].tolist(),
        join.n[choice].tolist(),
        join.m[choice].tolist(),
        np.searchsorted(hit_key, choice, side="left").tolist(),
        np.searchsorted(hit_key, choice, side="right").tolist(),
    ):
        # The hits since the last key with a choice are all matched.
        last_pair.update(zip(zip(hit_cam[done:start], hit_gid[done:start]), hit_pid[done:start]))
        done = end
        cam = hit_cam[start]
        p0 = g0 + n_k
        # Any single continuation outweighs every possible IoU saving.
        penalty = 2.0 * (n_k + m_k) + 10.0
        cost = np.full((n_k, m_k), FORBIDDEN)
        hit_at = {}  # (i, j) -> hit
        for h, g, p in zip(range(start, end), hit_g[start:end].tolist(), hit_p[start:end].tolist()):
            i, j = g - g0, p - p0
            hit_at[i, j] = h
            # A box's IoU with itself can round a few ulps above 1.
            cost[i, j] = max(0.0, 1.0 - hit_iou[h])
            if last_pair.get((cam, hit_gid[h])) != hit_pid[h]:
                cost[i, j] += penalty
        for i, j in hungarian(cost).matched_pairs:
            h = hit_at[i, j]
            matched[h] = True
            last_pair[(cam, hit_gid[h])] = hit_pid[h]

    # Every matched pair is a hit, and each truth and predicted row is in
    # at most one.
    pairs = int(np.count_nonzero(matched))
    fn, fp = len(gt) - pairs, len(pred) - pairs
    # A stable sort by camera and truth identity keeps each one's matches
    # in key order; a switch is a change of predicted identity between two
    # neighbours.
    g, p = hit_g[matched], hit_p[matched]
    camera, g_id, p_id = rows.camera[g], rows.identity[g], rows.identity[p]
    order = np.lexsort((g_id, camera))
    camera, g_id, p_id = camera[order], g_id[order], p_id[order]
    same = (camera[1:] == camera[:-1]) & (g_id[1:] == g_id[:-1])
    ids = int(np.count_nonzero(same & (p_id[1:] != p_id[:-1])))

    total_gt = len(gt)
    if total_gt > 0:
        mota = 1.0 - (fn + fp + ids) / total_gt
    else:
        mota = 1.0 if fp == 0 else 0.0
    return ClearReport(mota=mota, ids=ids, fp=fp, fn=fn)
