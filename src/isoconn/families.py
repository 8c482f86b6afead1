"""Isospectral Laplacian families from agent relabelings and ones-fixing transforms."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    InvalidTransformError,
    NotLaplacianError,
    OrderTooLargeError,
)
from .matrices import (
    SquareMatrix,
    _as_int,
    _as_permutation,
    permutation_matrix,
    validate_iso_transform,
)
from .topology import AgentConfiguration, validate_laplacian

DISTINCTNESS_TOL = 1e-12
FULL_ENUMERATION_MAX_ORDER = 8
DEFAULT_SAMPLE_SEED = 0
# Matrix entries a family may hold (128 MiB of float64): full enumeration at
# order 8 keeps 40,319 relabelings of 2 * 64 entries, about 5.2M.
_FAMILY_ENTRIES = 1 << 24


@dataclass(frozen=True)
class IsoFamilyEntry:
    """One member of an isospectral family: the transform used and its conjugate.

    ``distinct_from_base`` is matrix-level distinctness (some entry differs by
    more than 1e-12); two distinct matrices may still describe relabelings of
    the same graph, which this module does not try to detect.
    """

    transform: SquareMatrix
    result: SquareMatrix
    laplacian_structured: bool
    distinct_from_base: bool
    perm: tuple[int, ...] | None = None

    def to_json_dict(self) -> dict:
        return {
            "perm": list(self.perm) if self.perm is not None else None,
            "matrix": self.result.to_json_dict(),
            "laplacian_structured": self.laplacian_structured,
            "distinct_from_base": self.distinct_from_base,
        }


def similarity_transform(
    laplacian: SquareMatrix, transform: SquareMatrix, tol: float = 1e-9
) -> IsoFamilyEntry:
    """Conjugate a Laplacian by a validated orthonormal ones-fixing transform.

    The result keeps zero row sums up to rounding (the ones fixed point buys
    that); whether it is a Laplacian again, row sums included, is re-checked.
    """
    if laplacian.order != transform.order:
        raise InvalidTransformError(
            f"orders differ: {laplacian.order} vs {transform.order}"
        )
    verdict = validate_iso_transform(transform, tol)
    if not verdict.passed:
        raise InvalidTransformError(
            f"transform failed validation: orthonormality residual "
            f"{verdict.orthonormality_residual:.3e}, ones residual {verdict.ones_residual:.3e}"
        )
    if not validate_laplacian(laplacian, 1e-9).passed:
        raise NotLaplacianError("base matrix fails structural Laplacian validation")
    q = transform.entries
    result = SquareMatrix(q.T @ laplacian.entries @ q)
    perm = None
    if verdict.is_permutation:
        perm = tuple(int(np.argmax(row)) for row in q)
    return IsoFamilyEntry(
        transform=transform,
        result=result,
        laplacian_structured=validate_laplacian(result, 1e-9).passed,
        distinct_from_base=float(np.abs(result.entries - laplacian.entries).max())
        > DISTINCTNESS_TOL,
        perm=perm,
    )


def _conjugate_by_perm(m: np.ndarray, perm: Sequence[int]) -> np.ndarray:
    # J.T @ m @ J for the permutation matrix of perm, done by pure reindexing:
    # exact (no arithmetic), entry (i, j) of the result is m[inv(i), inv(j)].
    inv = np.argsort(np.asarray(perm))
    return m[np.ix_(inv, inv)]


def permutation_family(
    laplacian: SquareMatrix,
    limit: int | None = None,
    dedupe: bool = True,
    sample: bool | None = None,
    seed: int = DEFAULT_SAMPLE_SEED,
) -> list[IsoFamilyEntry]:
    """Conjugates of a Laplacian under non-identity relabelings.

    Orders up to 8 are enumerated fully in lexicographic permutation order;
    larger orders are sampled with a seeded generator (``sample=None`` picks the
    mode by order, ``sample=False`` insists on full enumeration).  With
    ``dedupe`` the entries whose result matrices coincide exactly are collapsed,
    keeping the lexicographically first representative; ``limit`` caps the
    number of returned entries.  Sampling draws at most 200 relabelings per
    kept entry.  At most ``limit`` entries are kept when sampling without
    ``dedupe``, else at most ``min(limit, n! - 1)``; a call whose kept
    entries would hold more than 2^24 matrix entries (each a transform and a
    result of n * n) is a ValueError before any draw.  ``seed`` is an integer
    >= 0, checked in either mode.
    """
    if limit is not None:
        limit = _as_int(limit, "limit")
        if limit < 1:
            raise ValueError("limit must be >= 1")
    seed = _as_int(seed, "seed")
    if seed < 0:
        raise ValueError("seed must be >= 0")
    if not validate_laplacian(laplacian, 1e-9).passed:
        raise NotLaplacianError("base matrix fails structural Laplacian validation")
    n = laplacian.order
    m = laplacian.entries
    if sample is None:
        sample = n > FULL_ENUMERATION_MAX_ORDER
    if not sample and n > FULL_ENUMERATION_MAX_ORDER:
        raise OrderTooLargeError(
            f"full enumeration of {n}! permutations refused; pass sample=True"
        )
    if sample and limit is None:
        raise ValueError("sampling needs an explicit limit")
    others = math.factorial(n) - 1
    kept = limit if sample and not dedupe else min(limit or others, others)
    if kept * 2 * n * n > _FAMILY_ENTRIES:
        raise ValueError(f"{kept} relabelings of order {n} would hold {kept * 2 * n * n} matrix entries, over 2**24")
    if sample:
        rng = np.random.default_rng(seed)
        perms = (tuple(int(i) for i in rng.permutation(n)) for _ in range(200 * kept))
    else:
        perms = itertools.permutations(range(n))
    identity = tuple(range(n))
    entries: list[IsoFamilyEntry] = []
    seen: set[bytes] = set()
    for perm in perms:
        if perm == identity:
            continue
        result = _conjugate_by_perm(m, perm)
        if dedupe:
            key = result.tobytes()
            if key in seen:
                continue
            seen.add(key)
        entries.append(
            IsoFamilyEntry(
                transform=permutation_matrix(perm),
                result=SquareMatrix(result),
                # Relabeling rearranges entries: every structural flag of the
                # (validated) base carries over exactly.
                laplacian_structured=True,
                distinct_from_base=float(np.abs(result - m).max()) > DISTINCTNESS_TOL,
                perm=perm,
            )
        )
        if len(entries) == limit:
            break
    return entries


def relabel_configuration(config: AgentConfiguration, perm: Sequence[int]) -> AgentConfiguration:
    """Reorder agents so the new Laplacian is the permutation conjugate of the old.

    Agent ids travel with their positions; with J = permutation_matrix(perm),
    build_laplacian(result) equals J.T @ build_laplacian(config) @ J: exactly
    off the diagonal, and on it up to the rounding of summing each agent's
    link weights in another order.
    """
    p = _as_permutation(perm)
    if len(p) != len(config.agents):
        raise ValueError(f"permutation length {len(p)} != agent count {len(config.agents)}")
    inv = np.argsort(np.asarray(p))
    agents = tuple(config.agents[int(i)] for i in inv)
    return AgentConfiguration(agents, config.sigma, config.comm_range)
