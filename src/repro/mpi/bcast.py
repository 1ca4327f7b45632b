"""HPL's panel-broadcast algorithm family, over simulated communicators.

HPL.dat's ``BCAST`` option selects how a factored panel travels along a
process row.  This module implements the three families the paper's Linpack
inherits (plus the generic binomial tree the rest of the code uses):

* ``binomial`` — MPICH-style tree: ``ceil(log2 P)`` rounds, each moving the
  full payload.  Latency-optimal for short messages.
* ``1ring`` — HPL's *increasing ring*: the root sends to the next process,
  which forwards to the next, and so on.  ``P - 1`` hops of the full
  payload, but each link is used once, so a segmenting implementation
  pipelines to ~2 message times (the analytic model accounts exactly that).
* ``1rm`` — *increasing ring, modified*: the process immediately after the
  root receives the panel directly and is exempt from forwarding, so the
  owner of the *next* panel can start factoring it at once (the reason HPL
  pairs this variant with look-ahead).  The chain runs from ``root + 2``.
* ``long`` — the bandwidth-reducing spread-roll (scatter + ring allgather):
  the root scatters ``P`` pieces, then ``P - 1`` allgather rounds roll every
  piece around the ring.  Each rank moves ~``2 (P-1)/P`` of the payload
  instead of the full panel — the volume-optimal choice for long messages.

Every algorithm is a generator function over the local-rank send/recv
primitives of :class:`~repro.mpi.comm.CollectiveComm` (it yields their
events directly), so it runs unchanged on the world communicator, a
:class:`~repro.mpi.group.Group`, or anything ``comm.split`` returns.
"""

from __future__ import annotations

from typing import Any

import numpy as np

#: The canonical algorithm names, in HPL BCAST order.
BCAST_ALGORITHMS = ("binomial", "1ring", "1rm", "long")

#: Accepted spellings -> canonical names ("ring" predates the HPL family).
ALGORITHM_ALIASES = {
    "ring": "1ring",
    "increasing_ring": "1ring",
    "increasing_ring_modified": "1rm",
    "1rM": "1rm",
    "lng": "long",
}


def canonical_algorithm(name: str) -> str:
    """Resolve *name* (or an alias) to a canonical algorithm, or raise."""
    resolved = ALGORITHM_ALIASES.get(name, name)
    if resolved not in BCAST_ALGORITHMS:
        valid = ", ".join(BCAST_ALGORITHMS + tuple(ALGORITHM_ALIASES))
        raise ValueError(f"unknown broadcast algorithm {name!r}; valid: {valid}")
    return resolved


class _Filler:
    """Placeholder piece of an unsplittable payload (zero wire bytes)."""

    __slots__ = ()
    wire_nbytes = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<filler>"


FILLER = _Filler()


def split_payload(payload: Any, parts: int) -> list:
    """Split *payload* into *parts* pieces for the scatter phase of ``long``.

    Arrays split along axis 0 (pieces may be empty when there are fewer rows
    than ranks); tuples and lists split element-wise, preserving structure;
    anything else travels whole as piece 0 with zero-byte fillers behind it,
    so the numerics stay exact even for opaque payloads.
    """
    if parts <= 1:
        return [payload]
    if isinstance(payload, np.ndarray) and payload.ndim >= 1:
        return list(np.array_split(payload, parts, axis=0))
    if isinstance(payload, (tuple, list)):
        element_parts = [split_payload(element, parts) for element in payload]
        ctor = type(payload)
        return [ctor(ep[i] for ep in element_parts) for i in range(parts)]
    return [payload] + [FILLER] * (parts - 1)


def join_payload(parts: list) -> Any:
    """Inverse of :func:`split_payload` (pieces in original order)."""
    first = parts[0]
    if len(parts) == 1:
        return first
    if isinstance(first, np.ndarray):
        return np.concatenate(parts, axis=0)
    if isinstance(first, (tuple, list)):
        ctor = type(first)
        return ctor(
            join_payload([p[i] for p in parts]) for i in range(len(first))
        )
    return first


# -- the algorithms (generator functions over local-rank primitives) ----------
def bcast_binomial(comm, payload, root, tag):
    """MPICH-style binomial tree on relative ranks."""
    p = comm.size
    rel = (comm._lrank - root) % p
    mask = 1
    while mask < p:
        if rel & mask:
            src = (rel - mask + root) % p
            payload = (yield comm._lirecv(src, tag)).payload
            break
        mask <<= 1
    mask >>= 1
    while mask > 0:
        if rel + mask < p:
            yield comm._lisend(payload, (rel + mask + root) % p, tag)
        mask >>= 1
    return payload


def bcast_1ring(comm, payload, root, tag):
    """HPL's increasing ring: a chain from the root."""
    p = comm.size
    rel = (comm._lrank - root) % p
    if rel != 0:
        payload = (yield comm._lirecv((comm._lrank - 1) % p, tag)).payload
    if rel != p - 1:
        yield comm._lisend(payload, (comm._lrank + 1) % p, tag)
    return payload


def bcast_1rm(comm, payload, root, tag):
    """Increasing ring, modified: ``root + 1`` receives early, never forwards."""
    p = comm.size
    if p <= 2:
        return (yield from bcast_1ring(comm, payload, root, tag))
    rel = (comm._lrank - root) % p
    if rel == 0:
        # Serve the next panel's owner first, then seed the chain.
        yield comm._lisend(payload, (root + 1) % p, tag)
        yield comm._lisend(payload, (root + 2) % p, tag)
    elif rel == 1:
        payload = (yield comm._lirecv(root % p, tag)).payload
    else:
        src = root % p if rel == 2 else (comm._lrank - 1) % p
        payload = (yield comm._lirecv(src, tag)).payload
        if rel != p - 1:
            yield comm._lisend(payload, (comm._lrank + 1) % p, tag)
    return payload


def bcast_long(comm, payload, root, tag):
    """Bandwidth-reducing spread-roll: scatter pieces, then ring allgather."""
    p = comm.size
    if p == 1:
        return payload
    rel = (comm._lrank - root) % p
    if rel == 0:
        pieces = split_payload(payload, p)
        mine = pieces[0]
        for r in range(1, p):
            yield comm._lisend(pieces[r], (root + r) % p, (tag, "sc"))
    else:
        mine = (yield comm._lirecv(root % p, (tag, "sc"))).payload
    # Ring allgather: in round k every rank passes the piece it holds to the
    # right and receives its left neighbour's, so after P-1 rounds everyone
    # holds all P pieces (indexed by relative rank).
    pieces = [None] * p
    pieces[rel] = mine
    right = (comm._lrank + 1) % p
    left = (comm._lrank - 1) % p
    current = mine
    for k in range(p - 1):
        yield comm._lisend(current, right, (tag, "ag", k))
        current = (yield comm._lirecv(left, (tag, "ag", k))).payload
        pieces[(rel - k - 1) % p] = current
    return join_payload(pieces)


ALGORITHMS = {
    "binomial": bcast_binomial,
    "1ring": bcast_1ring,
    "1rm": bcast_1rm,
    "long": bcast_long,
}
