"""Scalar fields on manifolds and their command-line descriptions.

A field is a callable ``f(coords, ambient) -> values`` evaluated in batch at
chart coordinates with their embedded ambient positions, either arrays or the
broadcast columns of a :class:`~ckl.manifold.TensorGrid`, which it indexes as
``ambient[..., i]``.  Its values broadcast to the batch shape: a field that
depends on fewer axes, or on none, returns a smaller array or a scalar.  It
also supplies its value and exact chart derivatives at one point
(:meth:`ScalarField.jet`), from which the Laplace-Beltrami operator is
computed without differencing.  The text forms:

    const:<c>        constant field (alias: const1)
    ambient:<i>      restriction of the i-th ambient coordinate (1-based)
    poly:<monomials> polynomial in chart coordinates, monomial-list syntax;
                     refused when it depends on a periodic chart axis, where
                     it would jump at the period seam
"""

from __future__ import annotations

import numpy as np

from .catalog import PolyTerms, derivative_rule, parse_poly
from .errors import ValidationError
from .manifold import EmbeddedManifold, _tensor


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
        return self.value

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
        return ambient[..., self.index]

    def jet(self, coords, ambient, jac, hess):
        return ambient[self.index], jac[self.index], hess[self.index]


class ChartPolyField(ScalarField):
    """A chart polynomial, its gradient and Hessian by :func:`derivative_rule`."""

    def __init__(self, text: str, dim: int):
        super().__init__(f"poly:{text}")
        self.poly = parse_poly(text, dim)
        self.partials = derivative_rule([self.poly], PolyTerms.partial, dim)

    def __call__(self, coords, ambient):
        return self.poly(coords)

    def jet(self, coords, ambient, jac, hess):
        grad, second = (_tensor([[p(coords)] for p, in self.partials(k).values()],
                                (), self.poly.dim, k)[0] for k in (1, 2))
        return self.poly(coords), grad, second


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
        field = ChartPolyField(spec[5:], M.dim)
        periodic = M.chart(0).periodic
        for _, alpha in field.poly.terms:
            for i, e in enumerate(alpha):
                if e and periodic[i]:
                    raise ValidationError(
                        f"{spec!r} depends on chart axis {i + 1}, which is "
                        "periodic: the field would jump at the period seam")
        return field
    raise ValidationError(
        f"unknown function spec {spec!r}; use const:<c>, ambient:<i>, "
        f"poly:<monomials>, or const1")
