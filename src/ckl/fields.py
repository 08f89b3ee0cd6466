"""Scalar fields on manifolds and their command-line descriptions.

A field is a callable ``f(coords, ambient) -> values`` evaluated in batch at
chart coordinates with their embedded ambient positions.  It also supplies its
value and exact chart derivatives at one point (:meth:`ScalarField.jet`), from
which the Laplace-Beltrami operator is computed without differencing.  The
text forms:

    const:<c>        constant field (alias: const1)
    ambient:<i>      restriction of the i-th ambient coordinate (1-based)
    poly:<monomials> polynomial in chart coordinates, monomial-list syntax
"""

from __future__ import annotations

import numpy as np

from .catalog import parse_poly
from .errors import ValidationError
from .manifold import EmbeddedManifold


class ScalarField:
    """A field with a stable identifier for reports, its batched values and
    its exact chart derivatives."""

    def __init__(self, field_id: str):
        self.field_id = field_id

    def __call__(self, coords: np.ndarray, ambient: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def jet(self, coords, ambient, jac, hess):
        """Value, chart gradient ``(d,)`` and chart Hessian ``(d, d)`` at one
        point, given its coordinates ``(d,)``, embedding ``(n,)`` and the
        chart's Jacobian ``(n, d)`` and Hessian ``(n, d, d)`` there."""
        raise NotImplementedError


class ConstField(ScalarField):
    def __init__(self, value: float):
        super().__init__(f"const:{value:g}")
        self.value = float(value)

    def __call__(self, coords, ambient):
        return np.full(np.asarray(coords).shape[:-1], self.value)

    def jet(self, coords, ambient, jac, hess):
        d = jac.shape[-1]
        return self.value, np.zeros(d), np.zeros((d, d))


class AmbientCoordField(ScalarField):
    def __init__(self, index: int, ambient_dim: int):
        if not 1 <= index <= ambient_dim:
            raise ValidationError(
                f"ambient coordinate {index} out of range 1..{ambient_dim}")
        super().__init__(f"ambient:{index}")
        self.index = index - 1

    def __call__(self, coords, ambient):
        return np.asarray(ambient)[..., self.index]

    def jet(self, coords, ambient, jac, hess):
        return ambient[self.index], jac[self.index], hess[self.index]


class ChartPolyField(ScalarField):
    def __init__(self, text: str, dim: int):
        super().__init__(f"poly:{text}")
        self.poly = parse_poly(text, dim)
        self.grad, self.hess = self.poly.derivatives()

    def __call__(self, coords, ambient):
        return self.poly(np.asarray(coords))

    def jet(self, coords, ambient, jac, hess):
        return (self.poly(coords), np.array([g(coords) for g in self.grad]),
                np.array([[h(coords) for h in row] for row in self.hess]))


def parse_function(spec: str, M: EmbeddedManifold) -> ScalarField:
    """Resolve a field description against a manifold."""
    spec = spec.strip()
    if spec == "const1":
        return ConstField(1.0)
    if spec.startswith("const:"):
        try:
            return ConstField(float(spec[6:]))
        except ValueError:
            raise ValidationError(f"bad constant in {spec!r}") from None
    if spec.startswith("ambient:"):
        try:
            idx = int(spec[8:])
        except ValueError:
            raise ValidationError(f"bad ambient index in {spec!r}") from None
        return AmbientCoordField(idx, M.ambient_dim)
    if spec.startswith("poly:"):
        return ChartPolyField(spec[5:], M.dim)
    raise ValidationError(
        f"unknown function spec {spec!r}; use const:<c>, ambient:<i>, "
        f"poly:<monomials>, or const1")
