"""Built-in manifolds and the plain-text manifold description format.

Catalog surfaces ship analytic embedding derivatives (generated symbolically
once per construction and lambdified to vectorized numpy closures), so the
geometry layer runs at full accuracy on them.  Polynomial graph charts also
ship the closed-form volume element ``sqrt(1 + |grad P|^2)``.  User-defined
charts fall back to finite differences.

Description files are UTF-8 ``key=value`` tokens, e.g.::

    type=torus R=2.0 r=1.0 delta=0.9
    type=graph d=3 poly=0.5:(2,0,0),0.5:(0,2,0),2:(0,0,2) box=1.0

Polynomials are monomial lists ``coeff:(exponents)``; a restricted human form
``0.5*x1^2+2*x3^2`` (plain decimal coefficients) is also accepted.
"""

from __future__ import annotations

import math
import re
from pathlib import Path

import numpy as np
import sympy as sym

from .errors import ValidationError
from .manifold import Chart, EmbeddedManifold

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# Symbolic chart construction
# ---------------------------------------------------------------------------

def _lambdify_stack(syms, exprs, shape):
    """Lambdify a flat list of expressions into one batched array closure."""
    fns = [sym.lambdify(syms, e, "numpy") for e in exprs]

    def call(coords):
        coords = np.asarray(coords, dtype=float)
        args = [coords[..., i] for i in range(len(syms))]
        base = coords.shape[:-1]
        flat = [np.broadcast_to(np.asarray(fn(*args), dtype=float), base)
                for fn in fns]
        return np.stack(flat, axis=-1).reshape(base + shape)

    return call


def symbolic_chart(coord_names: list[str], embed_exprs: list, lo, hi,
                   periodic, name: str = "") -> Chart:
    """Build a chart with exact jacobian/hessian from sympy expressions."""
    syms = [sym.Symbol(c, real=True) for c in coord_names]
    d, n = len(syms), len(embed_exprs)
    jac_exprs = [sym.diff(e, s) for e in embed_exprs for s in syms]
    hess_exprs = [sym.diff(e, s1, s2)
                  for e in embed_exprs for s1 in syms for s2 in syms]
    return Chart(
        embed=_lambdify_stack(syms, embed_exprs, (n,)),
        lo=lo, hi=hi, periodic=periodic,
        jacobian=_lambdify_stack(syms, jac_exprs, (n, d)),
        hessian=_lambdify_stack(syms, hess_exprs, (n, d, d)),
        name=name,
    )


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

    def grad(self) -> list["PolyTerms"]:
        cols = []
        for i in range(self.dim):
            terms = []
            for c, alpha in self.terms:
                if alpha[i]:
                    new = list(alpha)
                    new[i] -= 1
                    terms.append((c * alpha[i], tuple(new)))
            cols.append(PolyTerms(self.dim, terms))
        return cols


def graph_chart(poly: PolyTerms, halfwidth: float, name: str = "") -> Chart:
    """The graph (s, P(s)) over the box [-halfwidth, halfwidth]^d."""
    d = poly.dim
    grad = poly.grad()
    hess = [g.grad() for g in grad]

    def embed(coords):
        coords = np.asarray(coords, dtype=float)
        return np.concatenate([coords, poly(coords)[..., None]], axis=-1)

    def jacobian(coords):
        coords = np.asarray(coords, dtype=float)
        base = coords.shape[:-1]
        jac = np.zeros(base + (d + 1, d))
        for i in range(d):
            jac[..., i, i] = 1.0
            jac[..., d, i] = grad[i](coords)
        return jac

    def hessian(coords):
        coords = np.asarray(coords, dtype=float)
        base = coords.shape[:-1]
        out = np.zeros(base + (d + 1, d, d))
        for i in range(d):
            for j in range(d):
                out[..., d, i, j] = hess[i][j](coords)
        return out

    def volume_element(coords):
        # sqrt(det g) = sqrt(1 + |grad P|^2) for the metric I + grad P grad P^T
        coords = np.asarray(coords, dtype=float)
        sq = np.ones(coords.shape[:-1])
        for g in grad:
            sq += g(coords) ** 2
        return np.sqrt(sq)

    return Chart(embed=embed, lo=[-halfwidth] * d, hi=[halfwidth] * d,
                 periodic=[False] * d, jacobian=jacobian, hessian=hessian,
                 volume_element=volume_element, name=name)


# ---------------------------------------------------------------------------
# Catalog builders
# ---------------------------------------------------------------------------

def make_sphere(radius: float = 1.0, dim: int = 2,
                delta: float | None = None) -> EmbeddedManifold:
    if radius <= 0:
        raise ValidationError("sphere radius must be positive")
    r = sym.Float(radius)
    if dim == 2:
        th, ph = "theta", "phi"
        t, p = sym.symbols("theta phi", real=True)
        exprs = [r * sym.sin(t) * sym.cos(p), r * sym.sin(t) * sym.sin(p),
                 r * sym.cos(t)]
        chart = symbolic_chart([th, ph], exprs,
                               lo=[0.0, 0.0], hi=[math.pi, TWO_PI],
                               periodic=[False, True], name="sphere2")
    elif dim == 3:
        a, b, p = sym.symbols("psi theta phi", real=True)
        exprs = [r * sym.sin(a) * sym.sin(b) * sym.cos(p),
                 r * sym.sin(a) * sym.sin(b) * sym.sin(p),
                 r * sym.sin(a) * sym.cos(b),
                 r * sym.cos(a)]
        chart = symbolic_chart(["psi", "theta", "phi"], exprs,
                               lo=[0.0, 0.0, 0.0], hi=[math.pi, math.pi, TWO_PI],
                               periodic=[False, False, True], name="sphere3")
    else:
        raise ValidationError(f"sphere charts are provided for dim 2 and 3, not {dim}")
    return EmbeddedManifold([chart],
                            delta=delta if delta else (math.pi - 0.1) * radius,
                            catalog_id=f"sphere{dim}")


def make_spheroid(a: float = 1.0, c: float = 1.6,
                  delta: float | None = None) -> EmbeddedManifold:
    if a <= 0 or c <= 0:
        raise ValidationError("spheroid semi-axes must be positive")
    t, p = sym.symbols("theta phi", real=True)
    exprs = [sym.Float(a) * sym.sin(t) * sym.cos(p),
             sym.Float(a) * sym.sin(t) * sym.sin(p),
             sym.Float(c) * sym.cos(t)]
    chart = symbolic_chart(["theta", "phi"], exprs,
                           lo=[0.0, 0.0], hi=[math.pi, TWO_PI],
                           periodic=[False, True], name="spheroid")
    return EmbeddedManifold([chart], delta=delta if delta else 0.5,
                            catalog_id="spheroid")


def make_torus(R: float = 2.0, r: float = 1.0,
               delta: float | None = None) -> EmbeddedManifold:
    if not R > r > 0:
        raise ValidationError("torus needs R > r > 0")
    u, v = sym.symbols("u v", real=True)
    exprs = [(sym.Float(R) + sym.Float(r) * sym.cos(v)) * sym.cos(u),
             (sym.Float(R) + sym.Float(r) * sym.cos(v)) * sym.sin(u),
             sym.Float(r) * sym.sin(v)]
    chart = symbolic_chart(["u", "v"], exprs,
                           lo=[0.0, 0.0], hi=[TWO_PI, TWO_PI],
                           periodic=[True, True], name="torus")
    return EmbeddedManifold([chart], delta=delta if delta else 0.9 * r,
                            catalog_id="torus")


def make_graph(poly: PolyTerms, halfwidth: float = 1.0,
               delta: float | None = None,
               catalog_id: str = "graph") -> EmbeddedManifold:
    chart = graph_chart(poly, halfwidth, name=catalog_id)
    return EmbeddedManifold([chart],
                            delta=delta if delta else halfwidth,
                            catalog_id=catalog_id)


def _quadric411() -> EmbeddedManifold:
    poly = PolyTerms(3, [(0.5, (2, 0, 0)), (0.5, (0, 2, 0)), (2.0, (0, 0, 2))])
    return make_graph(poly, halfwidth=1.0, catalog_id="quadric411")


def _plane() -> EmbeddedManifold:
    return make_graph(PolyTerms(2, []), halfwidth=2.0, catalog_id="plane")


CATALOG = {
    "sphere2": (lambda: make_sphere(1.0, 2), "unit sphere in R^3, (theta, phi) chart"),
    "sphere3": (lambda: make_sphere(1.0, 3), "unit 3-sphere in R^4"),
    "torus": (lambda: make_torus(2.0, 1.0), "torus of revolution, R=2, r=1"),
    "spheroid": (lambda: make_spheroid(1.0, 1.6), "prolate spheroid, a=1, c=1.6"),
    "plane": (_plane, "flat plane patch z=0 over [-2,2]^2"),
    "quadric411": (_quadric411,
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
        matched_span = 0
        for m in _MONO_RE.finditer(text):
            coeff = float(m.group(1))
            alpha = tuple(int(t) for t in m.group(2).split(",") if t.strip())
            if len(alpha) != dim:
                raise ValidationError(
                    f"exponent tuple {alpha} does not match d={dim}")
            terms.append((coeff, alpha))
            matched_span += m.end() - m.start()
        leftover = _MONO_RE.sub("", text).replace(",", "").strip()
        if not terms or leftover:
            raise ValidationError(f"cannot parse monomial list {text!r}")
        return PolyTerms(dim, terms)
    # human form: terms joined by +/-, factors joined by *
    chunks = text.replace("-", "+-").split("+")
    terms = []
    for chunk in chunks:
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
    delta = float(fields.pop("delta")) if "delta" in fields else None

    def want(*names):
        unknown = set(fields) - set(names)
        if unknown:
            raise ValidationError(
                f"unknown fields for type={kind}: {', '.join(sorted(unknown))}")

    if kind == "sphere":
        want("radius", "dim")
        return make_sphere(float(fields.get("radius", 1.0)),
                           int(fields.get("dim", 2)), delta=delta)
    if kind == "spheroid":
        want("a", "c")
        return make_spheroid(float(fields.get("a", 1.0)),
                             float(fields.get("c", 1.6)), delta=delta)
    if kind == "torus":
        want("R", "r")
        return make_torus(float(fields.get("R", 2.0)),
                          float(fields.get("r", 1.0)), delta=delta)
    if kind == "graph":
        want("d", "poly", "box")
        if "d" not in fields:
            raise ValidationError("graph manifolds need the field d=<dim>")
        d = int(fields["d"])
        poly = parse_poly(fields.get("poly", "0"), d)
        halfwidth = float(fields.get("box", 1.0))
        if halfwidth <= 0:
            raise ValidationError("graph box halfwidth must be positive")
        if delta is None:
            delta = 0.5 * (2.0 * halfwidth)
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
