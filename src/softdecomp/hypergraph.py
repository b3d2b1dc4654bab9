"""Hypergraphs with vertex-set connectivity primitives.

Vertices are referred to by integer ids (assigned in order of first
appearance) and vertex sets are manipulated as integer bitmasks.  All
structures are immutable once constructed, which lets connectivity
queries be cached safely.
"""

from __future__ import annotations

import re
import struct
from dataclasses import dataclass
from functools import cached_property


_IDENT = r"[A-Za-z0-9_']+"
_STMT_RE = re.compile(rf"({_IDENT})\s*\(([^()]*)\)")
_IDENT_RE = re.compile(rf"^{_IDENT}$")

# _BIT_DIGITS[b] maps byte x to the digit "1" or "0" of its bit b.
_BIT_DIGITS = tuple(bytes(b"01"[x >> b & 1] for x in range(256)) for b in range(8))


class HypergraphError(ValueError):
    """Raised for malformed hypergraphs or parse failures."""


def mask_of(ids):
    """Build a bitmask from an iterable of vertex ids."""
    m = 0
    for i in ids:
        m |= 1 << i
    return m


def ids_of(mask):
    """Return the sorted tuple of vertex ids set in ``mask``."""
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def popcount(mask):
    return mask.bit_count()


def bit_columns(n, masks):
    """The per-vertex bitset index of a list of masks over ``n`` vertices.

    Entry ``v`` is the int whose bit ``j`` is set when ``masks[j]``
    contains vertex ``v``.
    """
    if not masks:
        return [0] * n
    # One byte string of all masks, last mask first, ``step`` bytes
    # each (packed as little-endian uint64 words up to 64 vertices);
    # column v is every mask's byte holding v, spelled in binary digits
    # by _BIT_DIGITS.
    if n <= 64:
        rows, step = struct.pack(f"<{len(masks)}Q", *reversed(masks)), 8
    else:
        step = (n + 7) // 8
        rows = b"".join([m.to_bytes(step, "little") for m in reversed(masks)])
    columns = []
    for b in range((n + 7) // 8):
        digits = rows[b::step]
        columns += [int(digits.translate(_BIT_DIGITS[i]), 2)
                    for i in range(min(8, n - 8 * b))]
    return columns


@dataclass(frozen=True)
class Hypergraph:
    """An immutable hypergraph with named vertices and named edges.

    Edges keep their declaration order; duplicate vertex sets are
    allowed, but every vertex must occur in at least one edge.
    """

    vertex_names: tuple
    edge_names: tuple
    edge_vertex_ids: tuple  # tuple of sorted tuples of vertex ids

    def __post_init__(self):
        if len(self.edge_names) != len(self.edge_vertex_ids):
            raise HypergraphError("edge name/vertex list length mismatch")
        n = len(self.vertex_names)
        seen = 0
        for name, vs in zip(self.edge_names, self.edge_vertex_ids):
            if not vs:
                raise HypergraphError(f"edge {name!r} is empty")
            if list(vs) != sorted(set(vs)):
                raise HypergraphError(f"edge {name!r} vertex ids not sorted/unique")
            for v in vs:
                if not 0 <= v < n:
                    raise HypergraphError(f"edge {name!r} uses unknown vertex id {v}")
                seen |= 1 << v
        if seen != (1 << n) - 1 and n > 0:
            missing = [self.vertex_names[v] for v in range(n) if not seen >> v & 1]
            raise HypergraphError(f"isolated vertices: {', '.join(missing)}")
        if len(set(self.vertex_names)) != n:
            raise HypergraphError("duplicate vertex names")
        if len(set(self.edge_names)) != len(self.edge_names):
            raise HypergraphError("duplicate edge names")

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def from_named_edges(edges):
        """Build a hypergraph from ``(edge_name, [vertex names])`` pairs.

        Vertex ids follow first appearance.
        """
        order = {}
        for _, vs in edges:
            for v in vs:
                order.setdefault(v, len(order))
        edge_names = tuple(e for e, _ in edges)
        edge_ids = tuple(tuple(sorted({order[v] for v in vs})) for _, vs in edges)
        return Hypergraph(tuple(order), edge_names, edge_ids)

    # -- cached geometry -----------------------------------------------------

    @property
    def n_vertices(self):
        return len(self.vertex_names)

    @property
    def n_edges(self):
        return len(self.edge_names)

    @cached_property
    def all_vertices_mask(self):
        return (1 << self.n_vertices) - 1

    @cached_property
    def edge_masks(self):
        return tuple(mask_of(vs) for vs in self.edge_vertex_ids)

    @cached_property
    def adjacency(self):
        """For each vertex, the union mask of all edges containing it."""
        adj = [0] * self.n_vertices
        for m in self.edge_masks:
            vs = ids_of(m)
            for v in vs:
                adj[v] |= m
        return tuple(adj)

    def edge_id(self, name):
        try:
            return self.edge_names.index(name)
        except ValueError:
            raise HypergraphError(f"no edge named {name!r}") from None

    def vertex_id(self, name):
        try:
            return self.vertex_names.index(name)
        except ValueError:
            raise HypergraphError(f"no vertex named {name!r}") from None

    # -- connectivity --------------------------------------------------------

    def neighborhood(self, mask):
        """Union of all edges meeting the vertex set ``mask``."""
        out = 0
        adj = self.adjacency
        while mask:
            out |= adj[(mask & -mask).bit_length() - 1]
            mask &= mask - 1
        return out

    def component_neighborhoods(self, sep):
        """Maximal [sep]-connected vertex sets, each with the union of
        the edges meeting it, as ``(component, neighborhood)`` mask pairs.

        The pairs are ordered by smallest member vertex.  Both masks
        come from one walk: each vertex of a component is in exactly one
        frontier, so the union of the frontiers' adjacency is the
        component's neighborhood.
        """
        free = self.all_vertices_mask & ~sep
        rest = free
        adj = self.adjacency
        out = []
        while rest:
            comp = frontier = rest & -rest
            reach = 0
            while frontier:
                grown = 0
                m = frontier
                while m:
                    grown |= adj[(m & -m).bit_length() - 1]
                    m &= m - 1
                reach |= grown
                frontier = grown & free & ~comp
                comp |= frontier
            out.append((comp, reach))
            rest &= ~comp
        return out

    def vertex_components(self, sep):
        """Maximal [sep]-connected vertex sets, as bitmasks.

        The result is ordered by smallest member vertex id.
        """
        return [comp for comp, _ in self.component_neighborhoods(sep)]

    def component_unions(self, sep):
        """Vertex unions of the edges meeting each [sep]-component, in
        the order of ``vertex_components``.

        Edges inside ``sep`` meet no component and are in no union.
        """
        return [reach for _, reach in self.component_neighborhoods(sep)]

    # -- text format ---------------------------------------------------------

    def serialize(self):
        lines = []
        for name, vs in zip(self.edge_names, self.edge_vertex_ids):
            lines.append(f"{name}({','.join(self.vertex_names[v] for v in vs)})")
        return ",\n".join(lines) + "\n"


def cover_is_connected(cover_masks):
    """Whether a set of edge masks forms a connected subhypergraph
    (an empty set does not)."""
    if not cover_masks:
        return False
    reach = cover_masks[0]
    pending = list(cover_masks[1:])
    progress = True
    while pending and progress:
        progress = False
        for m in list(pending):
            if m & reach:
                reach |= m
                pending.remove(m)
                progress = True
    return not pending


def parse_hypergraph(text):
    """Parse the ``name(v1,v2,...)`` statement format.

    Statements are separated by commas and/or newlines; ``%`` starts a
    comment running to end of line.  Vertex ids are assigned by first
    appearance.
    """
    stripped = []
    for line in text.splitlines():
        cut = line.find("%")
        stripped.append(line if cut < 0 else line[:cut])
    body = "\n".join(stripped)

    edges = []
    pos = 0
    leftover = []
    for m in _STMT_RE.finditer(body):
        leftover.append(body[pos:m.start()])
        pos = m.end()
        name, inner = m.group(1), m.group(2)
        vs = [p.strip() for p in inner.split(",")] if inner.strip() else []
        if not vs or any(not _IDENT_RE.match(v) for v in vs):
            raise HypergraphError(f"bad vertex list in edge {name!r}: ({inner})")
        edges.append((name, vs))
    leftover.append(body[pos:])
    junk = "".join(leftover).replace(",", "").split()
    if junk:
        raise HypergraphError(f"unexpected input near {junk[0]!r}")
    if not edges:
        raise HypergraphError("no edges found")
    names = [e for e, _ in edges]
    if len(set(names)) != len(names):
        dup = next(n for i, n in enumerate(names) if n in names[:i])
        raise HypergraphError(f"duplicate edge name {dup!r}")
    return Hypergraph.from_named_edges(edges)
