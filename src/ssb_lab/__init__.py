"""Numerical laboratory for spontaneous symmetry breaking.

Five model problems share one question: the problem has a symmetry group,
does each individual solution keep all of it?  The pieces:

- ``steiner``: shortest networks connecting a square's corners, or 3-4 points
- ``scalar``: polynomial roots and minima under the sign flip
- ``ode``: the exponential solution family and its translation action
- ``maxwell``: vacuum plane waves, grid residuals, complex rescaling
- ``electrostatics``: point-charge potentials in n dimensions
- ``symmetry``: finite orthogonal groups, stabilizers, and the verdicts
- ``cli`` / ``report``: the ``ssb-lab`` command and its JSON manifests
"""

from __future__ import annotations

__version__ = "0.1.0"

from .symmetry import (FiniteGroup, OrthoTransform, PointConfig, SSBKind,
                       SSBVerdict, classify_ssb, cyclic_group, dihedral_group,
                       is_invariant, orbit, rotation2d, sign_flip_group,
                       stabilizer, verify_group_axioms)

__all__ = [
    "FiniteGroup",
    "OrthoTransform",
    "PointConfig",
    "SSBKind",
    "SSBVerdict",
    "__version__",
    "classify_ssb",
    "cyclic_group",
    "dihedral_group",
    "is_invariant",
    "orbit",
    "rotation2d",
    "sign_flip_group",
    "stabilizer",
    "verify_group_axioms",
]
