"""Graph family descriptors: ring, toroidal grid, hypercube, explicit edge list.

A family is a small immutable value describing a structured graph
symbolically. Nothing here materializes matrices; descriptors are the
shared input type of every computation in the package. A family's edges
are one (E, 2) integer array (``family_edges``), the form from which the
dense Laplacian is assembled.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Union

import numpy as np

from .errors import InvalidFamily


def require_int(value: object, what: str) -> int:
    """``value`` as a Python int, or InvalidFamily if it is not an integer.

    Accepts whatever ``operator.index`` accepts (Python and numpy integers)
    except a bool, so ``True`` is never read as 1; floats are refused even
    when integral, so a descriptor is never silently truncated.
    """
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise InvalidFamily(f"{what} must be an integer, got {value!r}")


def require_positive_int(value: object, what: str) -> int:
    """``value`` as an int >= 1, or InvalidFamily: the one rule for thread counts and caps."""
    value = require_int(value, what)
    if value < 1:
        raise InvalidFamily(f"{what} must be >= 1, got {value}")
    return value


@dataclass(frozen=True)
class Ring:
    """Cycle graph on ``m`` nodes; a single isolated node for m = 1.

    m = 2 is accepted as a descriptor (the closed-form average resistance
    is still defined through the parallel-resistor picture) but cannot be
    turned into a simple-graph Laplacian; see :func:`gridres.laplacian.build_laplacian`.
    """

    m: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "m", require_int(self.m, "Ring length"))
        if self.m < 1:
            raise InvalidFamily(f"Ring requires m >= 1, got {self.m}")

    def node_count(self) -> int:
        return self.m


@dataclass(frozen=True)
class Torus:
    """Toroidal grid on Z_{M1} x ... x Z_{Md} with nearest-neighbour edges.

    Every side must satisfy M_i >= 3: a side of 2 degenerates into parallel
    double edges (that graph is the hypercube, which has its own descriptor
    and its own spectrum), and a side of 1 is dimensionally vacuous.
    """

    dims: tuple[int, ...]

    def __post_init__(self) -> None:
        dims = tuple(require_int(m, "Torus side length") for m in self.dims)
        object.__setattr__(self, "dims", dims)
        if len(dims) == 0:
            raise InvalidFamily("Torus requires at least one dimension")
        for m in dims:
            if m == 2:
                raise InvalidFamily(
                    "Torus side length 2 is a degenerate double edge; "
                    "use Hypercube for the M=2 lattice"
                )
            if m < 3:
                raise InvalidFamily(f"Torus side lengths must be >= 3, got {m}")

    def node_count(self) -> int:
        return math.prod(self.dims)


@dataclass(frozen=True)
class Hypercube:
    """Graph on {0,1}^d with edges between words at Hamming distance 1."""

    d: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "d", require_int(self.d, "Hypercube dimension"))
        if self.d < 0:
            raise InvalidFamily(f"Hypercube requires d >= 0, got {self.d}")

    def node_count(self) -> int:
        return 2**self.d


@dataclass(frozen=True)
class Explicit:
    """Arbitrary simple undirected graph given by node count and edge set."""

    n: int
    edges: frozenset[tuple[int, int]]

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]) -> None:
        object.__setattr__(self, "n", require_int(n, "Explicit node count"))
        if self.n < 1:
            raise InvalidFamily(f"Explicit requires n >= 1, got {n}")
        seen: set[tuple[int, int]] = set()
        for u, v in edges:
            u, v = require_int(u, "edge endpoint"), require_int(v, "edge endpoint")
            if u == v:
                raise InvalidFamily(f"self-loop at node {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise InvalidFamily(f"edge ({u}, {v}) references a node outside [0, {self.n})")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise InvalidFamily(f"duplicate edge ({key[0]}, {key[1]})")
            seen.add(key)
        object.__setattr__(self, "edges", frozenset(seen))

    def node_count(self) -> int:
        return self.n


GraphFamily = Union[Ring, Torus, Hypercube, Explicit]


def family_edges(g: GraphFamily) -> np.ndarray:
    """The edges of a family as one (E, 2) intp array.

    Each unordered pair appears once, lower endpoint first. Torus nodes are
    indexed row-major over the coordinate tuple; hypercube nodes are the
    integers 0 .. 2^d - 1 read as bit words.
    """
    if isinstance(g, Ring):
        if g.m == 2:
            raise InvalidFamily(
                "Ring(2) as a cycle is a double edge and has no simple-graph "
                "Laplacian; use Hypercube(1) for the single-edge two-node graph"
            )
        if g.m == 1:
            return np.empty((0, 2), dtype=np.intp)
        return family_edges(Torus((g.m,)))
    if isinstance(g, Torus):
        nodes = np.arange(g.node_count(), dtype=np.intp).reshape(g.dims)
        pairs = [
            np.stack((nodes, np.roll(nodes, -1, axis)), axis=-1).reshape(-1, 2)
            for axis in range(len(g.dims))
        ]
        return np.sort(np.concatenate(pairs), axis=1)
    if isinstance(g, Hypercube):
        v = np.arange(2**g.d, dtype=np.intp)[:, None]
        bits = np.left_shift(1, np.arange(g.d, dtype=np.intp))
        clear = (v & bits) == 0
        return np.stack((np.broadcast_to(v, clear.shape)[clear], (v | bits)[clear]), axis=1)
    if isinstance(g, Explicit):
        flat = itertools.chain.from_iterable(g.edges)
        edges = np.fromiter(flat, np.intp, 2 * len(g.edges)).reshape(-1, 2)
        return edges[np.lexsort((edges[:, 1], edges[:, 0]))]
    raise InvalidFamily(f"unknown graph family {type(g).__name__}")


def read_edge_list(path: str | Path) -> Explicit:
    """Parse the text edge-list format into an Explicit family.

    First non-comment line holds the node count ``n``; every following
    line holds one edge ``u v`` (0-based). Lines starting with '#' and
    blank lines are ignored.
    """
    n: int | None = None
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != (1 if n is None else 2):
            expected = "a single node count" if n is None else "'u v'"
            raise InvalidFamily(f"{path}:{lineno}: expected {expected}, got {line!r}")
        try:
            values = [int(part) for part in parts]
        except ValueError:
            raise InvalidFamily(f"{path}:{lineno}: expected integers, got {line!r}") from None
        if n is None:
            n = values[0]
        else:
            edges.append((values[0], values[1]))
    if n is None:
        raise InvalidFamily(f"{path}: empty edge-list file")
    return Explicit(n, edges)
