"""Built-in manifolds and the plain-text manifold description format.

Catalog surfaces ship exact embedding derivatives.  The trig charts (spheres,
spheroid, torus) write each embedding component as a sum of products of
per-axis sinusoids ``a + b sin x_i + c cos x_i``, whose derivatives are phase
shifts.  Polynomial graph charts differentiate their monomials.  Every catalog
chart also ships its closed-form volume element: ``sqrt(1 + |grad P|^2)`` for
graphs, and for the trig charts, whose coordinates are orthogonal, the product
of the coordinate vectors' lengths.

Description files are UTF-8 ``key=value`` tokens, e.g.::

    type=torus R=2.0 r=1.0 delta=0.9
    type=graph d=3 poly=0.5:(2,0,0),0.5:(0,2,0),2:(0,0,2) box=1.0

Polynomials are monomial lists ``coeff:(exponents)``; a restricted human form
``0.5*x1^2+2*x3^2`` (plain decimal coefficients) is also accepted.
"""

from __future__ import annotations

import math
import re
from functools import reduce
from operator import mul
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .manifold import Chart, EmbeddedManifold

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# Trigonometric charts (sums of products of per-axis sinusoids)
# ---------------------------------------------------------------------------

# A trig term (coef, {i: (a, b, c)}) is coef times the product over its axes i
# of a + b sin x_i + c cos x_i; an embedding component is a list of terms.
TrigTerm = tuple[float, dict[int, tuple[float, float, float]]]


def trig_diff(terms: list[TrigTerm], i: int) -> list[TrigTerm]:
    """d/dx_i, exactly: the factor (a, b, c) of axis i becomes (0, -c, b)."""
    return [(coef, {**fs, i: (0.0, -fs[i][2], fs[i][1])})
            for coef, fs in terms if i in fs and (fs[i][1] or fs[i][2])]


def trig_chart(components: list[list[TrigTerm]], lo, hi, periodic,
               volume_element) -> Chart:
    """A chart with exact derivatives whose embedding components are trig terms.

    Its derivative closure evaluates the sinusoid factors of the requested
    orders once, as a table, and multiplies out only those orders' tensors.
    ``volume_element`` is the chart's closed-form ``sqrt(det g)``; the catalog
    coordinates are orthogonal, so it is the product of the lengths of the
    coordinate vectors.
    """
    d, n = len(lo), len(components)
    jac = [trig_diff(X, i) for X in components for i in range(d)]
    hess = [trig_diff(J, j) for J in jac for j in range(d)]
    # per order: the entries, the tensor shape, the sinusoid factors used
    tables = [(entries, shape, {(i, *abc) for terms in entries
                                for _, fs in terms for i, abc in fs.items()})
              for entries, shape in ((components, (n,)), (jac, (n, d)),
                                     (hess, (n, d, d)))]

    def derivs(coords, orders):
        coords = np.asarray(coords, dtype=float)
        sin, cos, val = np.sin(coords), np.cos(coords), {}
        for i, a, b, c in set().union(*(tables[k][2] for k in orders)):
            # only nonzero parts: zeros keep their sign
            parts = [w * t[..., i] for w, t in ((b, sin), (c, cos)) if w]
            parts += [a] if a else []
            val[i, a, b, c] = sum(parts[1:], parts[0])
        out = []
        for k in orders:
            entries, shape, _ = tables[k]
            tensor = np.zeros(coords.shape[:-1] + (len(entries),))
            for e, terms in enumerate(entries):
                if terms:
                    values = [reduce(mul, (val[(i, *abc)] for i, abc in fs.items()),
                                     coef) for coef, fs in terms]
                    tensor[..., e] = sum(values[1:], values[0])
            out.append(tensor.reshape(coords.shape[:-1] + shape))
        return out

    return Chart(derivs, volume_element, lo=lo, hi=hi, periodic=periodic)


# ---------------------------------------------------------------------------
# Polynomial graph charts (hand-coded exact derivatives)
# ---------------------------------------------------------------------------

class PolyTerms:
    """A multivariate polynomial as a list of (coefficient, exponent-tuple)."""

    def __init__(self, dim: int, terms: list[tuple[float, tuple[int, ...]]]):
        self.dim = dim
        self.terms = [(float(c), tuple(int(e) for e in a)) for c, a in terms]
        for _, alpha in self.terms:
            if len(alpha) != dim or any(e < 0 for e in alpha):
                raise ValidationError(f"bad exponent tuple {alpha} for dim {dim}")

    def __call__(self, coords: np.ndarray) -> np.ndarray:
        coords = np.asarray(coords, dtype=float)
        out = np.zeros(coords.shape[:-1])
        for c, alpha in self.terms:
            mono = np.full(coords.shape[:-1], c)
            for i, e in enumerate(alpha):
                if e:
                    mono = mono * coords[..., i] ** e
            out += mono
        return out

    def derivatives(self) -> tuple[list["PolyTerms"], list[list["PolyTerms"]]]:
        """First and second partials: ``grad[i]`` and ``hess[i][j]``."""
        def grad(p):
            return [PolyTerms(p.dim, [(c * a[i], a[:i] + (a[i] - 1,) + a[i + 1:])
                                      for c, a in p.terms if a[i]])
                    for i in range(p.dim)]
        first = grad(self)
        return first, [grad(g) for g in first]


def graph_chart(poly: PolyTerms, halfwidth: float) -> Chart:
    """The graph (s, P(s)) over the box [-halfwidth, halfwidth]^d."""
    d = poly.dim
    grad, hess = poly.derivatives()

    def derivs(coords, orders):
        coords = np.asarray(coords, dtype=float)
        out = []
        for k in orders:
            if k == 0:
                out.append(np.concatenate([coords, poly(coords)[..., None]],
                                          axis=-1))
                continue
            # rows 0..d-1 are the identity (order 1) or zero (order 2); row d
            # holds the derivatives of P
            tensor = np.zeros(coords.shape[:-1] + (d + 1,) + (d,) * k)
            for i in range(d):
                if k == 1:
                    tensor[..., i, i] = 1.0
                    tensor[..., d, i] = grad[i](coords)
                else:
                    for j in range(d):
                        tensor[..., d, i, j] = hess[i][j](coords)
            out.append(tensor)
        return out

    def volume_element(coords):
        # sqrt(det g) = sqrt(1 + |grad P|^2) for the metric I + grad P grad P^T
        coords = np.asarray(coords, dtype=float)
        sq = np.ones(coords.shape[:-1])
        for g in grad:
            sq += g(coords) ** 2
        return np.sqrt(sq)

    return Chart(derivs, volume_element, lo=[-halfwidth] * d, hi=[halfwidth] * d,
                 periodic=[False] * d)


# ---------------------------------------------------------------------------
# Catalog builders
# ---------------------------------------------------------------------------

SIN, COS = (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)


def _spheroid_chart(a: float, c: float) -> Chart:
    """(a sin t cos p, a sin t sin p, c cos t) over (t, p) in [0, pi] x [0, 2 pi)."""
    def volume_element(coords):
        # |d_p X| |d_t X| = a |sin t| sqrt(a^2 cos^2 t + c^2 sin^2 t)
        sin, cos = np.sin(coords[..., 0]), np.cos(coords[..., 0])
        return a * np.abs(sin) * np.sqrt(a * a * cos * cos + c * c * sin * sin)

    return trig_chart([[(a, {0: SIN, 1: COS})], [(a, {0: SIN, 1: SIN})],
                       [(c, {0: COS})]], lo=[0.0, 0.0], hi=[math.pi, TWO_PI],
                      periodic=[False, True], volume_element=volume_element)


def make_sphere(radius: float = 1.0, dim: int = 2,
                delta: float | None = None) -> EmbeddedManifold:
    if radius <= 0:
        raise ValidationError("sphere radius must be positive")
    if dim == 2:
        chart = _spheroid_chart(radius, radius)
    elif dim == 3:
        def volume_element(coords):
            # (psi, theta, phi) lengths r, r sin psi, r sin psi sin theta
            sin_psi = np.sin(coords[..., 0])
            return radius ** 3 * sin_psi * sin_psi * np.abs(np.sin(coords[..., 1]))

        chart = trig_chart([[(radius, {0: SIN, 1: SIN, 2: COS})],
                            [(radius, {0: SIN, 1: SIN, 2: SIN})],
                            [(radius, {0: SIN, 1: COS})],
                            [(radius, {0: COS})]],
                           lo=[0.0, 0.0, 0.0], hi=[math.pi, math.pi, TWO_PI],
                           periodic=[False, False, True],
                           volume_element=volume_element)
    else:
        raise ValidationError(f"sphere charts are provided for dim 2 and 3, not {dim}")
    return EmbeddedManifold([chart], delta=delta or (math.pi - 0.1) * radius,
                            catalog_id=f"sphere{dim}")


def make_spheroid(a: float = 1.0, c: float = 1.6,
                  delta: float | None = None) -> EmbeddedManifold:
    if a <= 0 or c <= 0:
        raise ValidationError("spheroid semi-axes must be positive")
    return EmbeddedManifold([_spheroid_chart(a, c)],
                            delta=delta or 0.5, catalog_id="spheroid")


def make_torus(R: float = 2.0, r: float = 1.0,
               delta: float | None = None) -> EmbeddedManifold:
    if not R > r > 0:
        raise ValidationError("torus needs R > r > 0")
    # (u, v) -> ((R + r cos v) cos u, (R + r cos v) sin u, r sin v)
    tube = (R, 0.0, r)

    def volume_element(coords):
        # |d_u X| |d_v X| = (R + r cos v) r
        return r * (R + r * np.cos(coords[..., 1]))

    chart = trig_chart([[(1.0, {0: COS, 1: tube})], [(1.0, {0: SIN, 1: tube})],
                        [(r, {1: SIN})]], lo=[0.0, 0.0], hi=[TWO_PI, TWO_PI],
                       periodic=[True, True], volume_element=volume_element)
    return EmbeddedManifold([chart], delta=delta or 0.9 * r, catalog_id="torus")


def make_graph(poly: PolyTerms, halfwidth: float = 1.0,
               delta: float | None = None,
               catalog_id: str = "graph") -> EmbeddedManifold:
    return EmbeddedManifold([graph_chart(poly, halfwidth)],
                            delta=delta or halfwidth, catalog_id=catalog_id)


CATALOG = {
    "sphere2": (lambda: make_sphere(1.0, 2), "unit sphere in R^3, (theta, phi) chart"),
    "sphere3": (lambda: make_sphere(1.0, 3), "unit 3-sphere in R^4"),
    "torus": (lambda: make_torus(2.0, 1.0), "torus of revolution, R=2, r=1"),
    "spheroid": (lambda: make_spheroid(1.0, 1.6), "prolate spheroid, a=1, c=1.6"),
    "plane": (lambda: make_graph(PolyTerms(2, []), 2.0, catalog_id="plane"),
              "flat plane patch z=0 over [-2,2]^2"),
    "quadric411": (lambda: make_graph(parse_poly("0.5*x1^2+0.5*x2^2+2*x3^2", 3),
                                      1.0, catalog_id="quadric411"),
                   "graph of (x1^2 + x2^2 + 4 x3^2)/2 over [-1,1]^3"),
}


def catalog_manifold(name: str) -> EmbeddedManifold:
    try:
        builder, _ = CATALOG[name]
    except KeyError:
        raise ValidationError(
            f"unknown catalog manifold {name!r}; "
            f"known: {', '.join(sorted(CATALOG))}") from None
    return builder()


# ---------------------------------------------------------------------------
# Description files
# ---------------------------------------------------------------------------

_MONO_RE = re.compile(r"([+-]?\d+(?:\.\d*)?(?:[eE][+-]?\d+)?)\s*:\s*\(([\d,\s]*)\)")
_FACTOR_RE = re.compile(r"x(\d+)(?:\^(\d+))?$")


def parse_poly(text: str, dim: int) -> PolyTerms:
    """Parse a polynomial, either as monomial list or restricted human form."""
    text = text.strip()
    if not text or text == "0":
        return PolyTerms(dim, [])
    if ":" in text:
        terms = []
        for m in _MONO_RE.finditer(text):
            coeff = float(m.group(1))
            alpha = tuple(int(t) for t in m.group(2).split(",") if t.strip())
            if len(alpha) != dim:
                raise ValidationError(
                    f"exponent tuple {alpha} does not match d={dim}")
            terms.append((coeff, alpha))
        leftover = _MONO_RE.sub("", text).replace(",", "").strip()
        if not terms or leftover:
            raise ValidationError(f"cannot parse monomial list {text!r}")
        return PolyTerms(dim, terms)
    # human form: terms joined by +/-, factors joined by *
    terms = []
    for chunk in text.replace("-", "+-").split("+"):
        chunk = chunk.strip()
        if not chunk:
            continue
        coeff = 1.0
        alpha = [0] * dim
        if chunk.startswith("-"):
            coeff = -1.0
            chunk = chunk[1:]
        for factor in chunk.split("*"):
            factor = factor.strip()
            m = _FACTOR_RE.match(factor)
            if m:
                idx = int(m.group(1)) - 1
                if not 0 <= idx < dim:
                    raise ValidationError(f"variable x{idx + 1} out of range")
                alpha[idx] += int(m.group(2) or 1)
            else:
                try:
                    coeff *= float(factor)
                except ValueError:
                    raise ValidationError(
                        f"cannot parse polynomial factor {factor!r}") from None
        terms.append((coeff, tuple(alpha)))
    return PolyTerms(dim, terms)


def load_manifold_text(text: str) -> EmbeddedManifold:
    """Build a manifold from ``key=value`` description text."""
    fields: dict[str, str] = {}
    for line in text.splitlines():
        line = line.split("#", 1)[0]
        for token in line.split():
            if "=" not in token:
                raise ValidationError(f"expected key=value, got {token!r}")
            key, value = token.split("=", 1)
            fields[key.strip()] = value.strip()
    if "type" not in fields:
        raise ValidationError("manifold description is missing the 'type' field")
    kind = fields.pop("type")

    def want(*names):
        if unknown := set(fields) - {*names, "delta"}:
            raise ValidationError(
                f"unknown fields for type={kind}: {', '.join(sorted(unknown))}")

    def num(key, default, cast=float):
        if key not in fields:
            return default
        try:
            if math.isfinite(value := cast(fields[key])):
                return value
        except ValueError:
            pass
        raise ValidationError(f"field {key}={fields[key]!r} is not a finite "
                              f"{'integer' if cast is int else 'number'}")

    delta = num("delta", None)
    if kind == "sphere":
        want("radius", "dim")
        return make_sphere(num("radius", 1.0), num("dim", 2, int), delta=delta)
    if kind == "spheroid":
        want("a", "c")
        return make_spheroid(num("a", 1.0), num("c", 1.6), delta=delta)
    if kind == "torus":
        want("R", "r")
        return make_torus(num("R", 2.0), num("r", 1.0), delta=delta)
    if kind == "graph":
        want("d", "poly", "box")
        if "d" not in fields:
            raise ValidationError("graph manifolds need the field d=<dim>")
        d = num("d", None, int)
        poly = parse_poly(fields.get("poly", "0"), d)
        halfwidth = num("box", 1.0)
        if halfwidth <= 0:
            raise ValidationError("graph box halfwidth must be positive")
        return make_graph(poly, halfwidth, delta=delta)
    raise ValidationError(f"unknown manifold type {kind!r}")


def load_manifold(spec: str) -> EmbeddedManifold:
    """Resolve a catalog name or description-file path to a manifold."""
    if spec in CATALOG:
        return catalog_manifold(spec)
    path = Path(spec)
    if not path.exists():
        raise ValidationError(
            f"manifold spec {spec!r} is neither a catalog name nor a file")
    return load_manifold_text(path.read_text(encoding="utf-8"))
