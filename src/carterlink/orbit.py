"""Dual reflections, linkage systems, loctets and projections.

The dual reflection at vertex t sends v to v - v_t * (column t of B): the
t coordinate flips sign and every neighbor coordinate gains +v_t across a
solid edge and -v_t across a dotted one.  The linkage vectors of a diagram
are closed under these reflections; the resulting graph is the linkage
system; every positive definite diagram has one.  Its nodes, edges and
components come from one closure, ``linkage._closure``, which reflects by
``reflect_at`` (written once, by vertex index) and is certified by the
minuscule-orbit table of the root lattice.  Given the diagram's pattern,
every node with a nonzero label on the pattern alphas a1, a2, a3 falls into
exactly one 8-element loctet, and the other nodes have zero labels on all
of them; without a pattern there are no loctets.  Loctets are grown and
checked once, in ``build_system``, and ``loctet_from_gamma8`` reads them
there.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import cached_property
from operator import neg
from typing import NamedTuple, Optional, Sequence

from . import diagram as dg
from .cartan import PartialCartan, build_partial_cartan, inverse_diagonal
from .linkage import (Linkage, VerificationError, _closure, _keying, _vector, enumerate_linkages,
                      reflect_at)

LOCTET_TYPES = ("L12", "L13", "L23")
Indices = tuple[int, int, int, int]  # vertex indices of a pattern's roles


class UnsupportedDiagram(ValueError):
    """The loctet API (``gamma8_candidates``, ``loctet_from_gamma8``) was given a diagram
    with no D5(a1)/D4 pattern, such as a chain or the bare 4-cycle, that ``build_system`` builds."""


def dual_reflect(pc: PartialCartan, t, v: Sequence[int]) -> Linkage:
    """Apply the dual reflection at vertex t to an integer label vector."""
    return reflect_at(pc, pc.diagram.index_of(t), _vector(len(pc), v))


class Loctet(NamedTuple):
    """An 8-element spindle orbit.

    ``members`` is ordered gamma(1..8) for the generated kinds L12/L13/L23;
    for the bare-square diagram D4(a1) each whole component is a single
    loctet of kind 'D4' in sorted order."""

    kind: str
    members: tuple[Linkage, ...]


class LinkageSystem(dg._Value):
    """The orbit graph of all linkage vectors under the dual reflections.

    The value is every attribute but ``_index``, the node positions, which
    are read from ``nodes``."""

    _value = ("pc", "nodes", "edges", "components", "component_p", "loctets", "unicolored")

    def __init__(self, pc: PartialCartan, nodes: tuple[Linkage, ...],
                 edges: tuple[tuple[int, int, str], ...], components: tuple[tuple[int, ...], ...],
                 component_p: tuple[Fraction, ...], loctets: tuple[Loctet, ...],
                 unicolored: tuple[Linkage, ...]) -> None:
        self.__dict__.update(pc=pc, nodes=nodes, edges=edges, components=components,
                             component_p=component_p, loctets=loctets, unicolored=unicolored)

    @cached_property
    def _index(self) -> dict[Linkage, int]:
        return {v: i for i, v in enumerate(self.nodes)}

    def node_index(self, v: Linkage) -> int:
        """The index of the node v, a tuple or list; its entries are not checked to be
        ints ((1.0, 0) finds (1, 0)), as ``to_json`` and ``to_dot`` read every loctet member."""
        try:  # None is no node; TypeError: an unhashable entry, as in [[1]]
            return self._index[tuple(v) if isinstance(v, (tuple, list)) else None]
        except (KeyError, TypeError):
            raise ValueError(f"{v!r} is not a node of the linkage system") from None


def _pattern_indices(pc: PartialCartan) -> Indices:
    """Vertex indices of the pattern's a1, a2, a3 and b1."""
    pat = pc.diagram.pattern
    if pat is None:
        raise UnsupportedDiagram(f"{pc.diagram.name}: no D5(a1)/D4 pattern subdiagram")
    return tuple(map(pc.diagram.index_of, pat))


def _kind_indices(pat: Indices, kind: str) -> Indices:
    """Vertex indices of a_i, a_j, a_k and b1 for the loctet kind L_ij."""
    if kind not in LOCTET_TYPES:
        raise ValueError(f"loctet kind must be one of {LOCTET_TYPES}, got {kind!r}")
    ai, aj = (int(c) - 1 for c in kind[1:])
    return pat[ai], pat[aj], pat[3 - ai - aj], pat[3]


def gamma8_candidates(pc: PartialCartan, kind: str) -> tuple[Linkage, ...]:
    """All eighth linkage diagrams of loctets of the given kind.

    For kind L_ij the candidates carry 0 at pattern alphas a_i and a_j, 1 at
    the remaining a_k, 0 at the center b1, and anything admissible elsewhere.
    They are read from the linkage closure that ``pc`` keeps.
    """
    return _gamma8(pc, _kind_indices(_pattern_indices(pc), kind))


def _gamma8(pc: PartialCartan, ijkb: Indices) -> tuple[Linkage, ...]:
    i, j, k, b = ijkb
    return tuple(v for v in enumerate_linkages(pc) if v[i] == v[j] == v[b] == 0 and v[k] == 1)


def loctet_from_gamma8(pc: PartialCartan, g8: Sequence[int], kind: str) -> Loctet:
    """The loctet of ``build_system(pc)`` whose gamma(8) is g8.  Raises
    ValueError when g8 is not one of ``gamma8_candidates(pc, kind)``."""
    g8 = _vector(len(pc), g8)
    _kind_indices(_pattern_indices(pc), kind)  # the pattern and kind checks
    for loc in build_system(pc).loctets:
        if loc.kind == kind and loc.members[7] == g8:
            return loc
    raise ValueError(f"{g8} is not a gamma(8) candidate of kind {kind}")


def build_system(pc: PartialCartan) -> LinkageSystem:
    """Read nodes, edges, components and p from the closure ``pc`` keeps, then
    collect loctets and verify the loctet partition.  Every positive definite
    diagram builds.  Loctets come from the diagram's pattern, or are the
    components of the bare 4-cycle; a diagram with neither (a chain, say)
    gets none, and all its nodes are unicolored.  The empty system (E8) is
    legal; ``from_json`` checks by this.

    The bare 4-cycle has l = 4 and det B = 4, so its lattice is of type D4,
    and the closure's table check gives it three components of 8 at p = 1."""
    d = pc.diagram
    nodes, nums, edges, components = _closure(pc)
    component_p = tuple(Fraction(nums[c[0]], pc.inv_den) for c in components)

    if d.pattern is not None:
        pat = _pattern_indices(pc)
        loctets = _generated_loctets(pc, pat)
        key, steps = _keying(pc)
        membership: set[Linkage] = set()
        for loc in loctets:
            i, j = _kind_indices(pat, loc.kind)[:2]
            k4, k5, k6 = map(key, loc.members[3:6])
            if k4 != k6 - steps[i] or k5 != k6 - steps[j]:
                raise VerificationError(
                    f"{d.name}: in the {loc.kind} loctet of gamma(8) = {loc.members[7]}, gamma(4) "
                    f"and gamma(5) are not gamma(6) reflected at {d.vertices[i]} and {d.vertices[j]}")
            for m in loc.members:
                if m in membership:
                    raise VerificationError(f"{d.name}: {m} lies in two distinct loctets")
                membership.add(m)
        unicolored = tuple(v for v in nodes if v not in membership)
        a1, a2, a3 = pat[:3]
        for v in unicolored:
            if v[a1] or v[a2] or v[a3]:
                raise VerificationError(f"{d.name}: {v} has a pattern alpha label but no loctet")
    elif len(d) == len(d.edges) == 4:  # simple and bicolored: the 4-cycle K(2,2)
        loctets = tuple(Loctet("D4", tuple(nodes[i] for i in comp)) for comp in components)
        unicolored = ()
    else:
        loctets = ()
        unicolored = nodes

    return LinkageSystem(
        pc=pc,
        nodes=nodes,
        edges=edges,
        components=components,
        component_p=component_p,
        loctets=loctets,
        unicolored=unicolored,
    )


def _generated_loctets(pc: PartialCartan, pat: Indices) -> tuple[Loctet, ...]:
    """The loctet of each gamma(8) candidate of each kind L_ij: gamma(7) =
    s*_{a_k} gamma(8), gamma(6) = s*_{b1} gamma(7), gamma(4) = s*_{a_i} gamma(6),
    gamma(5) = s*_{a_j} gamma(6), and gamma(1..3) = -gamma(8..6).

    ``build_system`` checks the places of gamma(4) and gamma(5) by key:
    K(gamma(4)) = K(gamma(6)) - s_{a_i} and K(gamma(5)) = K(gamma(6)) - s_{a_j},
    as gamma(6) is 1 at a_i and a_j.  The other laws hold unchecked.  On the
    pattern's solid star (a_i, a_j, a_k, b1), gamma(1..8) read
    (0,0,-1,0), (0,0,1,-1), (-1,-1,0,1), (-1,1,0,0),
    (1,-1,0,0), (1,1,0,-1), (0,0,-1,1), (0,0,1,0) for every g8, so the members
    are distinct and each has a pattern alpha label.  Every member is a node:
    g8 is one, gamma(7), gamma(6), gamma(4) and gamma(5) reflect a node, and
    gamma(1..3) negate nodes, and the closure's nodes, as many as the table's
    total, are every vector of form < 2, a set that both keep.
    """
    out: list[Loctet] = []
    for kind in LOCTET_TYPES:
        i, j, k, b = _kind_indices(pat, kind)
        for g8 in _gamma8(pc, (i, j, k, b)):
            g7 = reflect_at(pc, k, g8)
            g6 = reflect_at(pc, b, g7)
            g4 = reflect_at(pc, i, g6)
            g5 = reflect_at(pc, j, g6)
            minus = tuple(map(neg, g8)), tuple(map(neg, g7)), tuple(map(neg, g6))
            out.append(Loctet(kind, (*minus, g4, g5, g6, g7, g8)))
    return tuple(out)


# -- projection ----------------------------------------------------------------


class ProjectionReport(NamedTuple):
    """Outcome of projecting an extended system onto its base."""

    dropped: dg.VertexId
    attach: dg.VertexId
    base_system: LinkageSystem
    kernel: tuple[Linkage, ...]
    image_count: int
    distinct_images: int
    loctet_pairs: tuple[tuple[int, int], ...]

    def fibers(self) -> dict[int, tuple[int, ...]]:
        out: dict[int, list[int]] = {}
        for ext_i, base_i in self.loctet_pairs:
            out.setdefault(base_i, []).append(ext_i)
        return {k: tuple(v) for k, v in sorted(out.items())}


def project_system(ext: LinkageSystem, dropped, base: PartialCartan) -> ProjectionReport:
    """Drop one coordinate of every node of ``ext`` and verify the images.

    Hypotheses, decided from the diagrams before the base system is built;
    an input that breaks one raises DiagramError naming it and its value:
    - the extended diagram is the base plus one solid leaf, ``dropped``;
    - (B^-1)_vv < 3/2 at the leaf's neighbor v;
    - the base has a pattern when the extension has one.
    The claims: every nonzero image is a base linkage vector, the kernel is
    exactly the two unit vectors at the dropped coordinate, and loctets map
    onto loctets.

    B_ext is [[B, -e_v], [-e_v^T, 2]], so det B_ext = det B * (2 - (B^-1)_vv)
    and (B_ext^-1)_nn = 1 / (2 - (B^-1)_vv) at the leaf n.  Both determinants
    are positive, so (B^-1)_vv < 2: the base is simply extendable at v,
    unchecked.  The leaf's unit vector is a linkage, of form < 2, exactly when
    (B^-1)_vv < 3/2; otherwise the kernel is empty.  An extension with a
    pattern has generated loctets, and a base without one has no loctets (a
    chain) or the components of the bare 4-cycle, onto which none projects.
    """
    d_ext = ext.pc.diagram
    di = d_ext.index_of(dropped)
    dropped = d_ext.vertices[di]
    keep = [i for i in range(len(d_ext)) if i != di]
    b_ext = ext.pc.gram
    sub = tuple(tuple(b_ext[r][c] for c in keep) for r in keep)
    if sub != base.gram:
        raise dg.DiagramError(
            f"{d_ext.name} minus {dropped} does not match {base.diagram.name} "
            "(vertex order included)")
    column = [(r, b_ext[r][di]) for r in keep if b_ext[r][di] != 0]
    if len(column) != 1 or column[0][1] != dg.SOLID:
        raise dg.DiagramError(f"{dropped} is not a simple-extension leaf")
    attach = base.diagram.vertices[keep.index(column[0][0])]
    vv = inverse_diagonal(base, attach)
    if vv >= Fraction(3, 2):
        raise dg.DiagramError(
            f"projection needs (B^-1)_vv < 3/2 at the attach vertex; "
            f"{base.diagram.name} has (B^-1)_vv = {vv} at {attach}")
    if d_ext.pattern is not None and base.diagram.pattern is None:
        raise dg.DiagramError(
            f"projection needs a pattern in the base when the extension has one; "
            f"{d_ext.name} has one, {base.diagram.name} has none")

    base_sys = build_system(base)

    kernel = []
    images = set()
    zero = (0,) * len(keep)
    for v in ext.nodes:
        img = v[:di] + v[di + 1:]
        if img == zero:
            kernel.append(v)
            continue
        if img not in base_sys._index:
            raise VerificationError(
                f"projection of {v} gives {img}, not a linkage vector of "
                f"{base.diagram.name}")
        images.add(img)

    unit = tuple(1 if i == di else 0 for i in range(len(d_ext)))
    if sorted(kernel) != sorted([tuple(map(neg, unit)), unit]):
        raise VerificationError(
            f"kernel is {sorted(kernel)}, expected the two unit vectors at {dropped}")

    base_sets = {frozenset(loc.members): i for i, loc in enumerate(base_sys.loctets)}
    pairs = []
    for ei, loc in enumerate(ext.loctets):
        img_set = frozenset(m[:di] + m[di + 1:] for m in loc.members)
        bi = base_sets.get(img_set)
        if bi is None:
            raise VerificationError(
                f"loctet {ei} ({loc.kind}) of {d_ext.name} does not project onto "
                f"a loctet of {base.diagram.name}")
        pairs.append((ei, bi))

    return ProjectionReport(
        dropped=dropped,
        attach=attach,
        base_system=base_sys,
        kernel=tuple(sorted(kernel)),
        image_count=len(ext.nodes) - len(kernel),
        distinct_images=len(images),
        loctet_pairs=tuple(pairs),
    )


# -- export --------------------------------------------------------------------


def label_of(v: Linkage) -> str:
    return ",".join(str(x) for x in v)


def to_dot(sys: LinkageSystem) -> str:
    """Graphviz rendering: loctets as clusters, edges labeled by generator."""
    lines = [f'graph "{sys.pc.diagram.name}" {{', "  node [shape=box];"]
    in_loctet = set()
    for li, loc in enumerate(sys.loctets):
        lines.append(f"  subgraph cluster_{li} {{")
        lines.append(f'    label="{loc.kind}";')
        for m in loc.members:
            i = sys.node_index(m)
            in_loctet.add(i)
            lines.append(f'    n{i} [label="{label_of(m)}"];')
        lines.append("  }")
    for i, v in enumerate(sys.nodes):
        if i not in in_loctet:
            lines.append(f'  n{i} [label="{label_of(v)}"];')
    for i, j, gen in sys.edges:
        lines.append(f'  n{i} -- n{j} [label="{gen}"];')
    lines.append("}")
    return "\n".join(lines)


def to_json(sys: LinkageSystem, indent: Optional[int] = None) -> str:
    """The system JSON text.  The document is a tree of fresh lists and tuples,
    so the encoder's check for circular references is off."""
    return json.JSONEncoder(indent=indent, check_circular=False).encode(_doc(sys))


def _doc(sys: LinkageSystem) -> dict:
    """The system JSON document; JSON writes the node, edge and component tuples as arrays.
    A loctet member or unicolored vector that is no node raises ValueError, as in ``to_dot``."""
    index = sys.node_index
    return {
        "diagram": dg.to_doc(sys.pc.diagram),
        "nodes": sys.nodes,
        "edges": sys.edges,
        "components": sys.components,
        "component_p": [str(p) for p in sys.component_p],
        "loctets": [{"kind": loc.kind, "members": list(map(index, loc.members))}
                    for loc in sys.loctets],
        "unicolored": list(map(index, sys.unicolored)),
    }


_SYSTEM_KEYS = ("diagram", "nodes", "edges", "components", "component_p", "loctets", "unicolored")
_HEAD = '{"diagram": {'  # how to_json's text starts: its diagram member, an object, comes first
_read_value = json.JSONDecoder().raw_decode
_canonical = json.JSONEncoder(sort_keys=True).encode  # true, 1.0 and 1 differ; key order does not


def from_json(text: str) -> LinkageSystem:
    """Parse a serialized system back and check it by rebuilding it.

    A ``str`` that starts as ``to_json``'s text does is read first by its
    diagram member alone: the system of that diagram is built, and it is
    returned when its ``to_json`` is the text.  Any other text takes the full
    path, which raises each error as if the first path had not run.  There a
    text that is not JSON, repeats a key in one object, is not an object with
    exactly the keys that ``to_json`` writes, or whose "diagram"
    ``diagram.from_doc`` rejects raises DiagramError.  Otherwise the system of
    the diagram is built, once: the full decode rejects a repeated key, so its
    "diagram" is the member that the first path read and built.  The document
    is accepted when each other field equals the rebuilt one as canonical
    JSON.  The first field that differs raises VerificationError naming its
    first differing entry, both lengths, or the value when it is not a list,
    so a malformed field, such as an index out of range or a p that
    ``to_json`` writes otherwise ("10/8" for 5/4), is a failed claim.  Returns
    the rebuilt system.
    """
    built = None
    if isinstance(text, str) and text.startswith(_HEAD):
        try:  # raw_decode fails at the member's "{" only where the full decode fails
            built = _system_of(_read_value(text, len(_HEAD) - 1)[0])
        except Exception:  # the full decode's errors come first
            dg._read_object(dg._decode(text, unique_keys=True), _SYSTEM_KEYS, "system JSON")
            raise
        if text == to_json(built):
            return built
    doc = dg._read_object(dg._decode(text, unique_keys=True), _SYSTEM_KEYS, "system JSON")
    if built is None:
        built = _system_of(doc["diagram"])
    d = built.pc.diagram
    want = _doc(built)
    for name in _SYSTEM_KEYS[1:]:
        value, rebuilt = doc[name], want[name]
        if _canonical(value) == _canonical(rebuilt):
            continue
        if not isinstance(value, list):
            witness = f"{name} is {_canonical(value)} in the document, not a list"
        else:
            k = next((k for k, (a, b) in enumerate(zip(value, rebuilt))
                      if _canonical(a) != _canonical(b)), None)
            witness = (f"{len(value)} {name} in the document, {len(rebuilt)} rebuilt" if k is None
                       else f"{name}[{k}] is {_canonical(value[k])} in the document, "
                            f"{_canonical(rebuilt[k])} rebuilt")
        raise VerificationError(
            f"system JSON of {d.name}: {name} differ from the rebuilt system: {witness}")
    return built


def _system_of(member) -> LinkageSystem:
    """The system of a decoded "diagram" member."""
    return build_system(build_partial_cartan(dg.from_doc(member)))
