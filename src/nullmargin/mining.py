"""Cross-view pseudo-class mining in the secondary discriminative space.

The anchor camera (most distinct within-view identities) defines a secondary
maximum-margin space trained on its unlabeled samples' primary embeddings.
Identities from other cameras are matched to anchor identities by mutual
top-k (k-reciprocal) nearest-neighbor search over identity centroids in that
space; each surviving mutual pair becomes a pseudo-class with affinity
exp(-dist^2 / sigma^2), sigma being the mean cross-view centroid distance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.spatial.distance import cdist

from .dataio import FeatureTable
from .errors import DataValidationError
from .kmmc import KernelDiscriminantModel, KernelSpec, fit_nkmmc, project_kernel
from .nk3ml import Nk3mlModel, embed


@dataclass
class AnchorContext:
    anchor_camera: int
    # (camera_id, within_view_id) -> row indices into the pool, ascending keys
    groups: dict[tuple[int, int], np.ndarray]
    secondary: KernelDiscriminantModel
    embedded: np.ndarray    # (n, l) primary embeddings of the pool's rows


@dataclass
class NeighborSets:
    """Per-query top-k neighbor lists and their mutual (k-reciprocal) parts."""

    k: int
    neighbors: tuple[np.ndarray, ...]
    reciprocal: tuple[np.ndarray, ...]


@dataclass(frozen=True)
class PseudoClass:
    anchor_identity: tuple[int, int]     # (camera_id, within_view_id)
    matched_identity: tuple[int, int]
    affinity: float
    iteration_found: int = 0


def view_identity_groups(table: FeatureTable) -> dict[tuple[int, int], np.ndarray]:
    """Row indices grouped by (camera_id, within_view_id), ascending keys and
    ascending rows within each group."""
    if table.n == 0:
        return {}
    order = np.lexsort((table.within_view_ids, table.camera_ids))
    cams = table.camera_ids[order]
    views = table.within_view_ids[order]
    starts = np.flatnonzero((cams[1:] != cams[:-1]) | (views[1:] != views[:-1])) + 1
    return {
        (int(cams[i]), int(views[i])): rows
        for i, rows in zip(np.r_[0, starts], np.split(order, starts))
    }


def select_anchor(unlabeled: FeatureTable) -> int:
    """Camera with the most distinct within-view identities; ties -> lowest id."""
    cameras = unlabeled.cameras()
    if len(cameras) < 2:
        raise DataValidationError(f"anchor selection needs >= 2 cameras, found {len(cameras)}")
    counts = {
        cam: len(np.unique(unlabeled.within_view_ids[unlabeled.camera_ids == cam]))
        for cam in cameras
    }
    best = max(counts.values())
    return min(cam for cam, count in counts.items() if count == best)


@dataclass(frozen=True)
class Anchor:
    """A pool that can host an anchor: its anchor camera and its
    view_identity_groups, formed once by find_anchor."""

    pool: FeatureTable
    camera: int
    groups: dict[tuple[int, int], np.ndarray]


def find_anchor(unlabeled: FeatureTable) -> Anchor | None:
    """The pool's Anchor, or None when the pool cannot host an anchor: fewer
    than 2 cameras, or fewer than 2 identities in the anchor camera."""
    if len(unlabeled.cameras()) < 2:
        return None
    anchor_camera = select_anchor(unlabeled)
    groups = view_identity_groups(unlabeled)
    hosted = sum(cam == anchor_camera for cam, _ in groups)
    return Anchor(unlabeled, anchor_camera, groups) if hosted >= 2 else None


def build_anchor_context(
    anchor: Anchor, primary: Nk3mlModel, kernel: KernelSpec
) -> AnchorContext:
    """Secondary max-margin space over the anchor camera's primary embeddings.

    The anchor's whole pool is embedded once; the context keeps those
    embeddings and the anchor's groups for mine_pseudo_classes.
    """
    anchor_camera, groups = anchor.camera, anchor.groups
    anchor_keys = [key for key in groups if key[0] == anchor_camera]
    anchor_rows = np.concatenate([groups[key] for key in anchor_keys])
    anchor_labels = np.concatenate(
        [np.full(len(groups[key]), key[1], dtype=np.int64) for key in anchor_keys]
    )
    embedded = embed(primary, anchor.pool.features)
    secondary = fit_nkmmc(embedded[anchor_rows], anchor_labels, kernel)
    return AnchorContext(
        anchor_camera=anchor_camera, groups=groups, secondary=secondary, embedded=embedded
    )


def _neighbor_lists(dist: np.ndarray, k: int, exclude_self: bool) -> list[np.ndarray]:
    # stable argsort: exact distance ties resolve to the lower gallery index
    order = np.argsort(dist, axis=1, kind="stable")
    out = []
    for i in range(dist.shape[0]):
        row = order[i]
        if exclude_self:
            row = row[dist[i, row] < np.inf]
        out.append(row[:k])
    return out


def k_reciprocal(
    queries: np.ndarray, gallery: np.ndarray, k: int, exclude_self: bool = False
) -> NeighborSets:
    """Mutual top-k neighbors: R_k(q) = {g in N_k(q) : q in N_k(g)}.

    The reverse neighborhoods N_k(g) are computed with the queries acting as
    the gallery of g, from the transpose of the one distance matrix.
    R_k(q) preserves the ascending-distance order of N_k(q).
    """
    if k < 1:
        raise DataValidationError("k must be >= 1")
    queries = np.atleast_2d(queries)
    gallery = np.atleast_2d(gallery)
    if gallery.shape[0] == 0:
        raise DataValidationError("empty gallery")
    dist = cdist(queries, gallery)
    if exclude_self:
        if dist.shape[0] != dist.shape[1]:
            raise DataValidationError("exclude_self requires queries and gallery to be the same set")
        np.fill_diagonal(dist, np.inf)
    forward = _neighbor_lists(dist, k, exclude_self)
    reverse = _neighbor_lists(dist.T, k, exclude_self)
    mutual = np.zeros((gallery.shape[0], queries.shape[0]), dtype=bool)
    for g, neigh in enumerate(reverse):
        mutual[g, neigh] = True
    reciprocal = tuple(neigh[mutual[neigh, i]] for i, neigh in enumerate(forward))
    return NeighborSets(k=k, neighbors=tuple(forward), reciprocal=reciprocal)


def mine_pseudo_classes(ctx: AnchorContext, k: int = 1, iteration: int = 0) -> list[PseudoClass]:
    """Mutual cross-view identity matches against the anchor camera.

    Maps every pool sample of the context into the secondary space,
    aggregates each (camera, within_view_id) group to its centroid, and keeps
    anchor/other pairs that are k-reciprocal neighbors there. Identities are
    used at most once: candidate pairs are accepted greedily by descending
    affinity with (anchor id, matched id) tie order, which is also the output
    order.
    """
    secondary_points = project_kernel(ctx.secondary, ctx.embedded)
    keys = list(ctx.groups)
    sizes = np.array([len(rows) for rows in ctx.groups.values()])
    grouped = secondary_points[np.concatenate(list(ctx.groups.values()))]
    centroids = np.add.reduceat(grouped, np.cumsum(sizes) - sizes, axis=0) / sizes[:, None]
    cams = np.array([cam for cam, _ in keys])

    anchor_ids = [key for key in keys if key[0] == ctx.anchor_camera]
    anchor_matrix = centroids[cams == ctx.anchor_camera]

    candidates: list[PseudoClass] = []
    for cam in sorted({cam for cam, _ in keys} - {ctx.anchor_camera}):
        other_ids = [key for key in keys if key[0] == cam]
        other_matrix = centroids[cams == cam]
        dists = cdist(anchor_matrix, other_matrix)
        sigma = float(dists.mean())
        neighbor_sets = k_reciprocal(anchor_matrix, other_matrix, k)
        for i, matches in enumerate(neighbor_sets.reciprocal):
            for g in matches:
                dist = float(dists[i, g])
                affinity = 1.0 if sigma == 0.0 else math.exp(-(dist * dist) / (sigma * sigma))
                candidates.append(
                    PseudoClass(
                        anchor_identity=anchor_ids[i],
                        matched_identity=other_ids[int(g)],
                        affinity=affinity,
                        iteration_found=iteration,
                    )
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
