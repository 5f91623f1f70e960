"""Partial Cartan matrix of a diagram with its exact inverse and determinant.

The matrix has 2 on the diagonal and the edge sign (-1 solid, +1 dotted) off
it.  For Dynkin diagrams this is the classical Cartan matrix.  The inverse
and determinant are computed eagerly over ``Fraction``; the linkage search
works from the integer matrix alone (see ``linkage.enumerate_linkages``).
Construction checks that the form is positive definite, so every leading
minor of B is positive.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import diagram as dg
from .linalg import RMatrix, is_positive_definite, mat_det, mat_inverse


class CartanError(ValueError):
    """The diagram does not carry a positive definite form."""


@dataclass(frozen=True)
class PartialCartan:
    """Bundle of a diagram with B, B^-1 and det B."""

    diagram: dg.CarterDiagram
    B: RMatrix
    B_inv: RMatrix
    det: Fraction

    def __len__(self) -> int:
        return len(self.diagram)

    def b_int(self) -> tuple[tuple[int, ...], ...]:
        """B as plain integers (entries are always 2, 0, +-1)."""
        return self.diagram.gram()


def build_partial_cartan(d: dg.CarterDiagram) -> PartialCartan:
    """Build B from the diagram and invert it exactly.

    Raises CartanError when the diagram is malformed or its form is not
    positive definite (an extended Dynkin diagram, for example, has det 0
    and corresponds to no linearly independent root subset).
    """
    problems = dg.validate(d)
    if problems:
        raise CartanError(f"{d.name}: " + "; ".join(problems))
    b = RMatrix.from_rows(d.gram())
    if not is_positive_definite(b):
        raise CartanError(f"{d.name}: the partial Cartan matrix is not positive definite")
    return PartialCartan(d, b, mat_inverse(b), mat_det(b))


def inverse_diagonal(pc: PartialCartan, v) -> Fraction:
    """The diagonal entry of B^-1 at vertex v."""
    i = pc.diagram.index_of(v)
    return pc.B_inv[i, i]


def simply_extendable(pc: PartialCartan, v) -> bool:
    """A leaf may be solid-attached at v exactly when (B^-1)_vv < 2."""
    return inverse_diagonal(pc, v) < 2
