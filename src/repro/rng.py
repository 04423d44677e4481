"""Seeded-randomness helpers: every generator traces back to a seed.

The experiments are reproducible only if no code path ever touches an
unseeded RNG.  ``reprolint`` (rule R001) forbids the old
``rng or np.random.default_rng()`` fallback; this module provides the
replacement: an explicit resolution step whose no-argument default is a
*fixed* seed, so a caller that passes nothing still gets a deterministic
stream — and a caller that wants a distinct stream passes
``rng=np.random.default_rng(seed)``.

This module is also the single place where *composite* seed material may
be turned into a generator.  Rule R006 forbids the historical ad-hoc
``np.random.default_rng((seed, k))`` tuple spelling everywhere except
here and :mod:`repro.runtime`; call sites use :func:`derive_rng` (for
integer sub-stream labels, e.g. one stream per simulated node) or
:meth:`repro.runtime.RunContext.stream` (for named streams).
"""

from __future__ import annotations

import hashlib
from typing import Optional

import numpy as np

__all__ = ["DEFAULT_SEED", "derive_rng", "resolve_rng", "stream_entropy"]

#: Seed used when a caller supplies no ``rng``.
DEFAULT_SEED = 0


def derive_rng(*parts: int) -> np.random.Generator:
    """A generator seeded from a tuple of integer labels.

    ``derive_rng(seed, k)`` is bit-for-bit identical to the historical
    ``np.random.default_rng((seed, k))`` spelling (numpy's
    ``SeedSequence`` consumes the tuple as entropy), so converting a call
    site does not change its stream.  Use it for structured sub-streams
    with integer labels — one stream per simulated node, per trial, per
    problem size.  For *named* streams, use
    :meth:`repro.runtime.RunContext.stream` instead.
    """
    return np.random.default_rng(tuple(int(part) for part in parts))


def stream_entropy(name: str) -> int:
    """Stable 64-bit entropy word for a named RNG stream.

    Hash-based (SHA-256 prefix), so it is independent of
    ``PYTHONHASHSEED`` and stable across processes, platforms, and
    releases — renaming a stream changes it, nothing else does.
    """
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def resolve_rng(
    rng: Optional[np.random.Generator] = None,
) -> np.random.Generator:
    """Return ``rng`` if given, else a generator seeded with
    :data:`DEFAULT_SEED`.

    Args:
        rng: an already-seeded generator; returned unchanged when given.
            A caller that wants a distinct stream passes
            ``np.random.default_rng(seed)``.

    Returns:
        A :class:`numpy.random.Generator` that is deterministic for a
        fixed ``rng`` choice — never an OS-entropy stream.
    """
    if rng is not None:
        return rng
    return np.random.default_rng(DEFAULT_SEED)
