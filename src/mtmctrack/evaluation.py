"""Identity-level and CLEAR tracking metrics.

The identity measures come from a global truth-to-result matching: every
ground-truth identity is paired with at most one predicted identity so that
the pairs co-locate in as many (camera, frame) keys as possible. That one
rectangular matching over the n_truth x n_predicted overlap counts also
leaves the fewest misses and false positives, and IDP/IDR/IDF1 are read off
its matched counts. The CLEAR pass matches boxes frame by frame with a
carry-over preference and counts FP/FN/identity switches.

Both metrics read one join on (camera, frame), which owns the row contract
(one row per identity per camera and frame) and the co-location rule (IoU
at or above the threshold). The join batches consecutive keys into chunks of
at most ``CHUNK_PAIRS`` truth x predicted pairs (a larger key is a chunk of
its own) and scores each chunk with one ``core.iou_aligned`` pass, the
package's one IoU formula. Its entries do not depend on their neighbours,
so the chunking changes no overlap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assignment import hungarian
from .core import FORBIDDEN, TrackRow, iou_aligned

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


def _colocated(gt: list[TrackRow], pred: list[TrackRow], iou_threshold: float):
    """The (camera, frame) join that both metrics read.

    Yields, in key order, each (camera, frame) with its truth rows and its
    predicted rows, each sorted by identity, and the ``(i, j, iou)`` of
    every pair whose boxes co-locate: IoU at or above the threshold, in
    row-major order. Two rows of one identity in one (camera, frame), on
    either side, violate the row contract.
    """
    if not 0.0 < iou_threshold < 1.0:
        raise ValueError("iou_threshold must lie in (0, 1)")
    gt_by_key: dict[tuple[int, int], dict[int, TrackRow]] = {}
    pred_by_key: dict[tuple[int, int], dict[int, TrackRow]] = {}
    for by_key, rows, side in ((gt_by_key, gt, "truth"), (pred_by_key, pred, "prediction")):
        for r in rows:
            key = (r.camera_id, r.frame)
            by_id = by_key.setdefault(key, {})
            if r.identity in by_id:
                raise ValueError(
                    f"duplicate row for identity {r.identity} at camera "
                    f"{key[0]} frame {key[1]} in the {side}"
                )
            by_id[r.identity] = r
    chunk = []
    chunk_pairs = 0
    for key in sorted(gt_by_key.keys() | pred_by_key.keys()):
        g_by_id = gt_by_key.get(key, {})
        p_by_id = pred_by_key.get(key, {})
        g_rows = [g_by_id[i] for i in sorted(g_by_id)]
        p_rows = [p_by_id[i] for i in sorted(p_by_id)]
        key_pairs = len(g_rows) * len(p_rows)
        # A key larger than a chunk is scored alone.
        if chunk and chunk_pairs + key_pairs > CHUNK_PAIRS:
            yield from _score_chunk(chunk, iou_threshold)
            chunk, chunk_pairs = [], 0
        chunk.append((key, g_rows, p_rows))
        chunk_pairs += key_pairs
    yield from _score_chunk(chunk, iou_threshold)


def _score_chunk(chunk: list, iou_threshold: float):
    """Score every truth x predicted pair of the chunk's keys in one
    ``iou_aligned`` pass, then yield each key as ``_colocated`` does."""
    n = np.array([len(g_rows) for _, g_rows, _ in chunk], dtype=np.int64)
    m = np.array([len(p_rows) for _, _, p_rows in chunk], dtype=np.int64)
    g_first = np.cumsum(n) - n  # first truth row of each key
    p_first = np.cumsum(m) - m  # first predicted row of each key
    # Each truth row pairs with the predicted rows of its key, in order, so
    # the pairs of a key run row-major.
    reps = np.repeat(m, n)
    total = int(reps.sum())
    hits: list = []
    ends = [0] * len(chunk)
    if total:
        key_of_row = np.repeat(np.arange(len(chunk)), n)
        row_of = np.repeat(np.arange(len(reps)), reps)
        pair_first = np.cumsum(reps) - reps  # first pair of each truth row
        p_at = np.arange(total) + np.repeat(p_first[key_of_row] - pair_first, reps)
        g_boxes = _boxes([r for _, g_rows, _ in chunk for r in g_rows])
        p_boxes = _boxes([r for _, _, p_rows in chunk for r in p_rows])
        # np.repeat and np.take copy rows several times faster than fancy
        # indexing does.
        overlaps = iou_aligned(np.repeat(g_boxes, reps, axis=0), np.take(p_boxes, p_at, axis=0))
        hit = np.flatnonzero(overlaps >= iou_threshold)
        row = row_of[hit]
        hit_key = key_of_row[row]
        i = row - g_first[hit_key]
        j = p_at[hit] - p_first[hit_key]
        hits = list(zip(i.tolist(), j.tolist(), overlaps[hit].tolist()))
        ends = np.cumsum(np.bincount(hit_key, minlength=len(chunk))).tolist()
    start = 0
    for (key, g_rows, p_rows), end in zip(chunk, ends):
        yield key, g_rows, p_rows, hits[start:end]
        start = end


def _boxes(rows: list[TrackRow]) -> np.ndarray:
    return np.array([(r.bbox.x, r.bbox.y, r.bbox.w, r.bbox.h) for r in rows], dtype=np.float64)


def id_measures(
    gt: list[TrackRow], pred: list[TrackRow], iou_threshold: float = 0.5
) -> IdMeasureReport:
    """IDF1/IDP/IDR from the optimal global identity matching.

    Boxes co-locate when their IoU reaches the threshold. ``overlap[g, p]``
    counts the (camera, frame) keys where truth identity ``g`` and
    predicted identity ``p`` co-locate, and the one-to-one pairing with the
    largest total overlap gives IDTP. Every pairing is allowed, so the
    Hungarian solver pairs min(n_truth, n_pred) identities, and minimising
    the sum of ``most - overlap`` over them maximises the total overlap.
    Ties change which identities pair, never IDTP.
    """
    gt_row = {g: k for k, g in enumerate(sorted({r.identity for r in gt}))}
    pred_col = {p: k for k, p in enumerate(sorted({r.identity for r in pred}))}
    cells = [
        gt_row[g_rows[i].identity] * len(pred_col) + pred_col[p_rows[j].identity]
        for _, g_rows, p_rows, pairs in _colocated(gt, pred, iou_threshold)
        for i, j, _ in pairs
    ]
    shape = (len(gt_row), len(pred_col))
    overlap = np.bincount(np.array(cells, dtype=np.int64), minlength=shape[0] * shape[1])
    overlap = overlap.reshape(shape)
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
    gt: list[TrackRow], pred: list[TrackRow], iou_threshold: float = 0.5
) -> ClearReport:
    """MOTA, identity switches, FP and FN via frame-by-frame matching.

    Within each (camera, frame) boxes are matched by Hungarian on 1 - IoU,
    gated at the threshold; pairings that continue the previous association
    of a truth identity are preferred over cheaper fresh ones. A switch is
    a matched truth box whose predicted identity differs from that truth
    identity's previous pairing in the same camera.
    """
    total_gt = len(gt)
    fp = fn = ids = 0
    last_pair: dict[tuple[int, int], int] = {}  # (camera, gt id) -> pred id

    for (cam, _), g_rows, p_rows, pairs in _colocated(gt, pred, iou_threshold):
        if not g_rows:
            fp += len(p_rows)
            continue
        if not p_rows:
            fn += len(g_rows)
            continue
        # Any single continuation outweighs every possible IoU saving.
        penalty = 2.0 * (len(g_rows) + len(p_rows)) + 10.0
        cost = np.full((len(g_rows), len(p_rows)), FORBIDDEN)
        for i, j, overlap in pairs:
            # A box's IoU with itself can round a few ulps above 1.
            cost[i, j] = max(0.0, 1.0 - overlap)
            if last_pair.get((cam, g_rows[i].identity)) != p_rows[j].identity:
                cost[i, j] += penalty
        result = hungarian(cost)
        fn += len(result.unmatched_rows)
        fp += len(result.unmatched_cols)
        for i, j in result.matched_pairs:
            g_id = g_rows[i].identity
            p_id = p_rows[j].identity
            prev = last_pair.get((cam, g_id))
            if prev is not None and prev != p_id:
                ids += 1
            last_pair[(cam, g_id)] = p_id

    if total_gt > 0:
        mota = 1.0 - (fn + fp + ids) / total_gt
    else:
        mota = 1.0 if fp == 0 else 0.0
    return ClearReport(mota=mota, ids=ids, fp=fp, fn=fn)
