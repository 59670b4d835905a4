"""Cross-view pseudo-class mining in the secondary discriminative space.

A pool is its (camera, within_view_id) groups of rows of a feature matrix.
find_anchor lays the pool out once, as its rows, its ascending group keys
and each row's group, and picks the anchor camera (most within-view
identities, ties to the lowest id). That camera's unlabeled samples, in
their primary embeddings, train a secondary maximum-margin space.
Identities from other cameras are matched to anchor identities by mutual
top-k (k-reciprocal) nearest-neighbor search across views: the anchor
camera's identity centroids in that space against each other camera's. Each
surviving mutual pair becomes a pseudo-class with affinity
exp(-dist^2 / sigma^2), sigma being the mean cross-view centroid distance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._blas import distances
from .dataio import _integer
from .errors import DataValidationError
from .kmmc import KernelDiscriminantModel, KernelSpec, fit_nkmmc, project_kernel
from .nfst import class_sums
from .nk3ml import Nk3mlModel, embed


@dataclass
class NeighborSets:
    """Each query's mutual (k-reciprocal) gallery neighbors, nearest first,
    and the (n_queries, n_gallery) distance matrix they were ranked from."""

    reciprocal: tuple[np.ndarray, ...]
    distances: np.ndarray


@dataclass(frozen=True)
class PseudoClass:
    anchor_identity: tuple[int, int]     # (camera_id, within_view_id)
    matched_identity: tuple[int, int]
    affinity: float
    iteration_found: int = 0


@dataclass(frozen=True)
class Anchor:
    """A pool that can host an anchor, laid out once by find_anchor.

    Row r of features is in group group[r], whose (camera_id,
    within_view_id) is keys[group[r]]. The rows keep their ascending order in
    the source matrix, whatever order the groups come in: embed blocks its
    GEMM by rows, so another order could change the embeddings' last bits.
    """

    features: np.ndarray    # (n, d) the pool's rows, in ascending row order
    camera: int
    keys: np.ndarray        # (g, 2) int64 (camera_id, within_view_id), ascending
    group: np.ndarray       # (n,) int64 each row's index into keys


@dataclass
class AnchorContext:
    anchor: Anchor
    secondary: KernelDiscriminantModel
    embedded: np.ndarray    # (n, l) primary embeddings of the pool's rows


def find_anchor(features: np.ndarray, groups: dict[tuple[int, int], np.ndarray]) -> Anchor | None:
    """The Anchor of the pool that groups (row indices into features, keyed
    and ordered as group_rows gives them) hold, or None when it cannot host
    an anchor: fewer than 2 cameras, or fewer than 2 identities in the
    anchor camera. The anchor camera has the most groups; ties go to the
    lowest camera id."""
    keys = np.array(list(groups), dtype=np.int64).reshape(-1, 2)
    cameras, counts = np.unique(keys[:, 0], return_counts=True)
    if len(cameras) < 2 or counts.max() < 2:
        return None
    members = np.concatenate(list(groups.values()))
    group = np.repeat(np.arange(len(keys)), [len(rows) for rows in groups.values()])
    order = np.argsort(members)
    return Anchor(features[members[order]], int(cameras[counts.argmax()]), keys, group[order])


def build_anchor_context(
    anchor: Anchor, primary: Nk3mlModel, kernel: KernelSpec
) -> AnchorContext:
    """Secondary max-margin space over the anchor camera's primary embeddings.

    The anchor's whole pool is embedded once; the context keeps those
    embeddings and the anchor for mine_pseudo_classes.
    """
    # the anchor camera's rows group by group, ascending within each group
    by_group = np.argsort(anchor.group, kind="stable")
    anchor_rows = by_group[anchor.keys[anchor.group[by_group], 0] == anchor.camera]
    embedded = embed(primary, anchor.features)
    secondary = fit_nkmmc(embedded[anchor_rows], anchor.keys[anchor.group[anchor_rows], 1], kernel)
    return AnchorContext(anchor=anchor, secondary=secondary, embedded=embedded)


def k_reciprocal(queries: np.ndarray, gallery: np.ndarray, k: int) -> NeighborSets:
    """Mutual top-k neighbors between two sets: R_k(q) = {g in N_k(q) : q in N_k(g)}.

    The reverse neighborhoods N_k(g) are computed with the queries acting as
    the gallery of g, from the transpose of the one distance matrix.
    R_k(q) preserves the ascending-distance order of N_k(q). Within a set X of
    distinct rows, the lists are k_reciprocal(X, X, k + 1) less each row's own index.
    """
    k = _integer(k, "k", minimum=1)
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    gallery = np.atleast_2d(np.asarray(gallery, dtype=np.float64))
    if gallery.shape[0] == 0:
        raise DataValidationError("empty gallery")
    dist = distances(queries, gallery)
    # Stable sorts: exact distance ties resolve to the lower index.
    forward = np.argsort(dist, axis=1, kind="stable")[:, :k]
    reverse = np.argsort(dist.T, axis=1, kind="stable")[:, :k]
    mutual = np.zeros(dist.T.shape, dtype=bool)
    np.put_along_axis(mutual, reverse, True, axis=1)
    reciprocal = tuple(neigh[mutual[neigh, i]] for i, neigh in enumerate(forward))
    return NeighborSets(reciprocal=reciprocal, distances=dist)


def mine_pseudo_classes(ctx: AnchorContext, k: int = 1, iteration: int = 0) -> list[PseudoClass]:
    """Mutual cross-view identity matches against the anchor camera.

    Maps every pool sample of the context into the secondary space,
    aggregates each (camera, within_view_id) group to its centroid, and keeps
    anchor/other pairs that are k-reciprocal neighbors there. Identities are
    used at most once: candidate pairs are accepted greedily by descending
    affinity with (anchor id, matched id) tie order, which is also the output
    order.
    """
    anchor = ctx.anchor
    sizes = np.bincount(anchor.group, minlength=len(anchor.keys))
    points = project_kernel(ctx.secondary, ctx.embedded)
    centroids = class_sums(points, anchor.group, sizes) / sizes[:, None]
    keys = list(map(tuple, anchor.keys.tolist()))
    cams = anchor.keys[:, 0]
    anchor_at = np.flatnonzero(cams == anchor.camera)

    candidates: list[PseudoClass] = []
    for cam in np.unique(cams[cams != anchor.camera]).tolist():
        other_at = np.flatnonzero(cams == cam)
        neighbor_sets = k_reciprocal(centroids[anchor_at], centroids[other_at], k)
        dists = neighbor_sets.distances
        sigma = float(dists.mean())
        for i, matches in enumerate(neighbor_sets.reciprocal):
            for g in matches:
                dist = float(dists[i, g])
                affinity = 1.0 if sigma == 0.0 else math.exp(-(dist * dist) / (sigma * sigma))
                candidates.append(
                    PseudoClass(keys[anchor_at[i]], keys[other_at[g]], affinity, iteration)
                )

    candidates.sort(key=lambda pc: (-pc.affinity, pc.anchor_identity, pc.matched_identity))
    used: set[tuple[int, int]] = set()
    accepted = []
    for pc in candidates:
        if pc.anchor_identity in used or pc.matched_identity in used:
            continue
        used.add(pc.anchor_identity)
        used.add(pc.matched_identity)
        accepted.append(pc)
    return accepted


def export_pseudo_classes_csv(pseudo_classes, path) -> None:
    lines = ["iteration,anchor_camera,anchor_id,matched_camera,matched_id,affinity"]
    for pc in pseudo_classes:
        lines.append(
            f"{pc.iteration_found},{pc.anchor_identity[0]},{pc.anchor_identity[1]},"
            f"{pc.matched_identity[0]},{pc.matched_identity[1]},{repr(pc.affinity)}"
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
