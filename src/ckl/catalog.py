"""Built-in manifolds and the plain-text manifold description format.

Catalog surfaces ship exact embedding derivatives of every order, each
builder by one rule (:func:`derivative_rule`), one row per nondecreasing
index tuple.  The trig charts (spheres, spheroid, torus) write each
embedding component as a sum of products of per-axis sinusoids
``a + b sin x_i + c cos x_i``, whose derivatives are phase shifts.
Polynomial graph charts differentiate their monomials.  The same closure
returns the chart's closed-form volume element on request:
``sqrt(1 + |grad P|^2)`` for graphs, from the order-1 partials, and for the
trig charts, whose coordinates are orthogonal, the product of the coordinate
vectors' lengths, read from the per-axis ``sin`` and ``cos`` table that the
embedding's sinusoids use.

Description files are UTF-8 ``key=value`` tokens, e.g.::

    type=torus R=2.0 r=1.0 delta=0.9
    type=graph d=3 poly=0.5:(2,0,0),0.5:(0,2,0),2:(0,0,2) box=1.0

Polynomials are monomial lists ``coeff:(exponents)``; a restricted human form
``0.5*x1^2+2*x3^2`` (plain decimal coefficients) is also accepted.
"""

from __future__ import annotations

import math
import re
from functools import cache, reduce
from operator import mul
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .manifold import Chart, EmbeddedManifold, as_coords

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


def derivative_rule(base: list, diff, d: int):
    """``entries(k)``: ``{t: row}`` over the nondecreasing index tuples t of
    order k, in ``combinations_with_replacement(range(d), k)`` order, a row
    holding ``diff(entry, i)`` of each entry of its prefix's row, i the last
    index: the C(d+k-1, k) distinct derivatives of the entries of ``base``
    (``{(): base}`` at order 0).  Each order is built on first request."""
    @cache
    def entries(k: int) -> dict[tuple[int, ...], list]:
        if k == 0:
            return {(): list(base)}
        return {t + (i,): [diff(e, i) for e in row]
                for t, row in entries(k - 1).items()
                for i in range(t[-1] if t else 0, d)}
    return entries


def trig_chart(components: list[list[TrigTerm]], lo, hi, periodic,
               volume_form) -> Chart:
    """A chart with exact derivatives of every order whose embedding
    components are trig terms.

    Order k is k phase shifts (:func:`trig_diff`) under
    :func:`derivative_rule`.  The derivative closure takes ``sin`` and
    ``cos`` once per axis it reads, as a table, evaluates the sinusoid
    factors of the requested orders from it, then each sorted entry once;
    the embedding is returned as its component columns, each broadcast over
    the axes its factors use.  ``volume_form(sin, cos)`` is the chart's
    closed-form ``sqrt(det g)`` from the same table (``sin[i]`` is ``sin``
    of axis i); the catalog coordinates are orthogonal, so it is the product
    of the coordinate vectors' lengths.
    """
    d = len(lo)
    entries = derivative_rule(components, trig_diff, d)

    @cache
    def factors(k: int) -> set:
        """The sinusoid factors ``(i, a, b, c)`` that order k uses."""
        return {(i, *abc) for row in entries(k).values() for terms in row
                for _, fs in terms for i, abc in fs.items()}

    def derivs(coords, orders, volume=False):
        used = set().union(*(factors(k) for k in orders))
        axes = range(d) if volume else {i for i, *_ in used}
        sin = {i: np.sin(coords[..., i]) for i in axes}
        cos = {i: np.cos(coords[..., i]) for i in axes}
        val = {}
        for i, a, b, c in used:
            # only nonzero parts: zeros keep their sign
            parts = [w * t[i] for w, t in ((b, sin), (c, cos)) if w]
            parts += [a] if a else []
            val[i, a, b, c] = sum(parts[1:], parts[0])

        def entry(terms):
            values = [reduce(mul, (val[(i, *abc)] for i, abc in fs.items()), coef)
                      for coef, fs in terms]
            return sum(values[1:], values[0])

        out = [[[entry(terms) if terms else None for terms in row]
                for row in entries(k).values()] for k in orders]
        if volume:
            out.append(volume_form(sin, cos))
        return out

    return Chart(derivs, lo=lo, hi=hi, periodic=periodic)


# ---------------------------------------------------------------------------
# Polynomial graph charts (partials of their monomials)
# ---------------------------------------------------------------------------

def _add_into(total, term):
    """``total + term``, in ``total``'s array (a sum begun from a constant)
    once that has the sum's shape."""
    if isinstance(total, np.ndarray) and total.shape == np.broadcast(
            total, term).shape:
        total += term
        return total
    return total + term


class PolyTerms:
    """A multivariate polynomial as a list of (coefficient, exponent-tuple),
    each term's coefficient times its integer ``factors`` entry (1 unless
    the polynomial is a partial)."""

    def __init__(self, dim: int, terms: list[tuple[float, tuple[int, ...]]],
                 factors: list[int] | None = None):
        self.dim = dim
        self.terms = [(float(c), tuple(int(e) for e in a)) for c, a in terms]
        self.factors = [1] * len(self.terms) if factors is None else factors
        for _, alpha in self.terms:
            if len(alpha) != dim or any(e < 0 for e in alpha):
                raise ValidationError(f"bad exponent tuple {alpha} for dim {dim}")

    def __call__(self, coords: np.ndarray) -> np.ndarray | float:
        """P at ``coords``, broadcast only over the axes its monomials use: a
        monomial starts from its coefficient times its factor, and the
        polynomial from 0."""
        coords = as_coords(coords)
        out = 0.0
        for (c, alpha), k in zip(self.terms, self.factors):
            mono = c * k
            for i, e in enumerate(alpha):
                if e:
                    mono = mono * coords[..., i] ** e
            out = _add_into(out, mono)
        return out

    def partial(self, i: int) -> "PolyTerms":
        """d/dx_i, exactly: the falling-factorial factor stays an integer, so
        the coefficient is rounded once, in whatever order the partials of a
        mixed derivative are taken."""
        kept = [(c, a, k) for (c, a), k in zip(self.terms, self.factors) if a[i]]
        return PolyTerms(self.dim,
                         [(c, a[:i] + (a[i] - 1,) + a[i + 1:]) for c, a, _ in kept],
                         [k * a[i] for _, a, k in kept])


def graph_chart(poly: PolyTerms, halfwidth: float) -> Chart:
    """The graph (s, P(s)) over the box [-halfwidth, halfwidth]^d, with exact
    derivatives of every order: the components (s_1, ..., s_d, P) under
    :func:`derivative_rule` with :meth:`PolyTerms.partial`, an identically
    zero partial as ``None``.  Order 0 returns the node axes themselves."""
    d = poly.dim
    entries = derivative_rule(
        [PolyTerms(d, [(1.0, tuple(int(j == i) for j in range(d)))])
         for i in range(d)] + [poly], PolyTerms.partial, d)

    def derivs(coords, orders, volume=False):
        out = []
        for k in orders:
            if k == 0:
                out.append([[coords[..., i] for i in range(d)] + [poly(coords)]])
                continue
            out.append([[p(coords) if p.terms else None for p in row]
                        for row in entries(k).values()])
        if volume:
            # sqrt(det g) = sqrt(1 + |grad P|^2) for the metric I + grad P grad P^T
            sq = 1.0
            for row in entries(1).values():
                sq = _add_into(sq, row[d](coords) ** 2)
            out.append(np.sqrt(sq, out=sq) if isinstance(sq, np.ndarray)
                       else np.sqrt(sq))
        return out

    return Chart(derivs, lo=[-halfwidth] * d, hi=[halfwidth] * d,
                 periodic=[False] * d)


# ---------------------------------------------------------------------------
# Catalog builders
# ---------------------------------------------------------------------------

SIN, COS = (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)


def _spheroid_chart(a: float, c: float) -> Chart:
    """(a sin t cos p, a sin t sin p, c cos t) over (t, p) in [0, pi] x [0, 2 pi)."""
    def volume(sin, cos):
        # |d_p X| |d_t X| = a |sin t| sqrt(a^2 cos^2 t + c^2 sin^2 t)
        return a * np.abs(sin[0]) * np.sqrt(a * a * cos[0] * cos[0]
                                            + c * c * sin[0] * sin[0])

    return trig_chart([[(a, {0: SIN, 1: COS})], [(a, {0: SIN, 1: SIN})],
                       [(c, {0: COS})]], lo=[0.0, 0.0], hi=[math.pi, TWO_PI],
                      periodic=[False, True], volume_form=volume)


def make_sphere(radius: float = 1.0, dim: int = 2,
                delta: float | None = None) -> EmbeddedManifold:
    if radius <= 0:
        raise ValidationError("sphere radius must be positive")
    if dim == 2:
        chart = _spheroid_chart(radius, radius)
    elif dim == 3:
        def volume(sin, cos):
            # (psi, theta, phi) lengths r, r sin psi, r sin psi sin theta
            return radius ** 3 * sin[0] * sin[0] * np.abs(sin[1])

        chart = trig_chart([[(radius, {0: SIN, 1: SIN, 2: COS})],
                            [(radius, {0: SIN, 1: SIN, 2: SIN})],
                            [(radius, {0: SIN, 1: COS})],
                            [(radius, {0: COS})]],
                           lo=[0.0, 0.0, 0.0], hi=[math.pi, math.pi, TWO_PI],
                           periodic=[False, False, True], volume_form=volume)
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

    def volume(sin, cos):
        # |d_u X| |d_v X| = (R + r cos v) r
        return r * (R + r * cos[1])

    chart = trig_chart([[(1.0, {0: COS, 1: tube})], [(1.0, {0: SIN, 1: tube})],
                        [(r, {1: SIN})]], lo=[0.0, 0.0], hi=[TWO_PI, TWO_PI],
                       periodic=[True, True], volume_form=volume)
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
