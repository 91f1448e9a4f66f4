"""Small-dimension complex Hermitian linear algebra with two backends.

Hermitian operators, canonical projectors, density matrices and Born
probabilities. The float backend works on flat tuples of Python floats and
calls numpy only for eigen- and singular-value problems, importing it inside
those functions; the exact backend works over Q(sqrt(2)) in integer
arithmetic.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from fractions import Fraction
from itertools import repeat, zip_longest
from math import copysign, gcd, hypot, lcm
from operator import add, mul, sub

from .scalars import ExactComplex, QSqrt2, exact_entry, get_eps


class BackendError(ValueError):
    """Raised when an operation is unsupported on the requested backend."""


class ValidationError(ValueError):
    """Raised when an input violates a structural precondition."""


def read_json_file(path):
    """The JSON value in a file. A document nested deeper than the parser
    can recurse is an input error, not a crash."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValidationError(f"{path}: JSON nested too deeply") from None


# ---------------------------------------------------------------------------
# internal matrix helpers. The exact backend stores its integer form
# ``(D, p, q)``: every entry is ``(p_k + q_k sqrt(2)) / D``, where ``p`` and
# ``q`` are integer tuples over the real parts of the entries, row-major,
# followed by their imaginary parts. The float backend stores the same
# shape: one flat tuple of Python floats holding the real parts of the
# entries, row-major, followed by their imaginary parts unless all of those
# are +0.0.
# ---------------------------------------------------------------------------


def _pack(re, im):
    """Float data from real and imaginary parts. The imaginary parts are
    dropped when every one is +0.0; a -0.0 keeps them, so that ``to_json``
    keeps its sign."""
    im = tuple(im)
    if any(im) or -1.0 in map(copysign, repeat(1.0), im):
        return tuple(re) + im
    return tuple(re)


def _float_combine(op, a, b, n: int):
    """Entrywise ``op`` (add or sub) of two float data of n entries."""
    if len(a) == len(b) == n:
        return tuple(map(op, a, b))
    zeros = (0.0,) * n
    return _pack(map(op, a[:n], b[:n]), map(op, a[n:] or zeros, b[n:] or zeros))


def _within(values, tol: float) -> bool:
    """Whether every value is at most tol; a NaN is not."""
    return all(map(tol.__ge__, values))


def _float_small(data, n: int, tol: float) -> bool:
    """Whether every entry has modulus at most tol."""
    re, im = data[:n], data[n:]
    return _within(map(hypot, re, im) if im else map(abs, re), tol)


def _transpose(x, d: int) -> list:
    """The transpose of a flat row-major d x d part."""
    return [y for j in range(d) for y in x[j::d]]


def _float_matmul(a, b, d: int):
    n = d * d

    def product(x, y):
        rows = [x[i:i + d] for i in range(0, n, d)]
        cols = [y[j:n:d] for j in range(d)]
        return [sum(map(mul, r, c)) for r in rows for c in cols]

    ar, ai, br, bi = a[:n], a[n:], b[:n], b[n:]
    re = product(ar, br)
    if not (ai or bi):
        return tuple(re)
    im = [0.0] * n
    if ai and bi:
        re = map(sub, re, product(ai, bi))
    if ai:
        im = product(ai, br)
    if bi:
        im = map(add, im, product(ar, bi))
    return _pack(re, im)


def _exact_form(d: int, p, q):
    """The integer form of the entries (p_k + q_k sqrt(2)) / d, d > 0:
    divided by the gcd of d and every part, trailing zeros dropped. It is
    unique, so two operators are equal exactly when their forms are."""
    g = gcd(d, *p, *q)
    return d // g, _stripped(x // g for x in p), _stripped(x // g for x in q)


def _stripped(xs) -> tuple:
    out = list(xs)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _zi_ints(entries):
    """``(d, w)``: ExactComplex entries as Z[sqrt(2)][i] 4-tuples w over their
    common denominator d (see ``_zi_mul``)."""
    parts = [(x.re.a, x.re.b, x.im.a, x.im.b) for x in entries]
    d = lcm(*(f.denominator for part in parts for f in part))
    return d, [tuple(f.numerator * (d // f.denominator) for f in part) for part in parts]


def _zi_entries(form, n: int) -> list:
    """The n entries of an integer form as Z[sqrt(2)][i] 4-tuples over its
    denominator (see ``_zi_mul``)."""
    _, p, q = form
    p, q = p + (0,) * (2 * n - len(p)), q + (0,) * (2 * n - len(q))
    return list(zip(p[:n], q[:n], p[n:], q[n:]))


def _zi_form(d: int, entries):
    """The integer form of Z[sqrt(2)][i] 4-tuples over the denominator d."""
    a, b, c, e = zip(*entries) if entries else [()] * 4
    return _exact_form(d, a + c, b + e)


def _exact_combine(op, a, b):
    """Entrywise ``op`` (add or sub) of two integer forms, over the lcm of
    their denominators."""
    (da, pa, qa), (db, pb, qb) = a, b
    d = lcm(da, db)
    ka, kb = d // da, d // db
    return _exact_form(d, [op(ka * x, kb * y) for x, y in zip_longest(pa, pb, fillvalue=0)],
                       [op(ka * x, kb * y) for x, y in zip_longest(qa, qb, fillvalue=0)])


def _exact_matmul(a, b, dim: int):
    n = dim * dim
    x, y = _zi_entries(a, n), _zi_entries(b, n)
    cols = [y[j::dim] for j in range(dim)]
    prod = [tuple(map(sum, zip(*map(_zi_mul, x[i:i + dim], c))))
            for i in range(0, n, dim) for c in cols]
    return _zi_form(a[0] * b[0], prod)


class HermitianOperator:
    """A dim x dim Hermitian matrix on one of the two scalar backends.

    ``data`` is the backend's representation (see above); ``from_entries``
    builds an operator from rows of entries."""

    __slots__ = ("dim", "backend", "data")

    def __init__(self, dim: int, data, backend: str, validate: bool = True):
        if dim <= 0:
            raise ValidationError("dimension must be positive")
        if backend not in ("exact", "float"):
            raise ValidationError(f"unknown backend {backend!r}")
        self.dim = dim
        self.backend = backend
        self.data = data
        if validate and not self._is_hermitian():
            raise ValidationError("matrix is not Hermitian")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_entries(cls, rows, backend: str = "float", validate: bool = True):
        dim = len(rows)
        if any(len(r) != dim for r in rows):
            raise ValidationError("matrix must be square")
        if backend == "float":
            entries = [complex(x) for r in rows for x in r]
            data = _pack([z.real for z in entries], [z.imag for z in entries])
        else:
            data = _zi_form(*_zi_ints(exact_entry(x) for r in rows for x in r))
        return cls(dim, data, backend, validate=validate)

    @classmethod
    def diag(cls, values: Sequence, backend: str = "float"):
        dim = len(values)
        if backend == "float":
            data = [0.0] * (dim * dim)
            data[::dim + 1] = [float(x) for x in values]
            return cls(dim, tuple(data), backend)
        return cls.from_entries([[values[i] if i == j else 0 for j in range(dim)]
                                 for i in range(dim)], backend)

    @classmethod
    def identity(cls, dim: int, backend: str = "float"):
        if backend == "float":
            data = [0.0] * (dim * dim)
            data[::dim + 1] = [1.0] * dim
            return cls(dim, tuple(data), backend, validate=False)
        return cls(dim, (1, (1,) + ((0,) * dim + (1,)) * (dim - 1), ()), backend, validate=False)

    @classmethod
    def zero(cls, dim: int, backend: str = "float"):
        if backend == "float":
            return cls(dim, (0.0,) * (dim * dim), backend, validate=False)
        return cls(dim, (1, (), ()), backend, validate=False)

    # -- structure ---------------------------------------------------------

    def _is_hermitian(self) -> bool:
        d, n = self.dim, self.dim ** 2
        if self.backend == "float":
            # A - A* entry by entry: real parts A - A^T, imaginary A + A^T
            re, im = self.data[:n], self.data[n:]
            re_diff = map(sub, re, _transpose(re, d))
            if not im:
                return _within(map(abs, re_diff), get_eps())
            return _within(map(hypot, re_diff, map(add, im, _transpose(im, d))), get_eps())
        x = _zi_entries(self.data, n)
        return x == [(a, b, -c, -e) for a, b, c, e in _transpose(x, d)]

    def entries(self):
        """The exact entries as rows of ExactComplex, built from the integer
        form for the code that needs field arithmetic."""
        d, den = self.dim, self.data[0]
        flat = [ExactComplex(QSqrt2(Fraction(a, den), Fraction(b, den)),
                             QSqrt2(Fraction(c, den), Fraction(e, den)))
                for a, b, c, e in _zi_entries(self.data, d * d)]
        return tuple(tuple(flat[k:k + d]) for k in range(0, d * d, d))

    def to_complex_array(self):
        """The matrix as a numpy complex array; imports numpy."""
        import numpy as np

        d = self.dim
        if self.backend == "exact":
            return np.array([[complex(x) for x in row] for row in self.entries()])
        n = d * d
        out = np.array(self.data[:n], dtype=complex).reshape(d, d)
        if len(self.data) > n:
            out.imag = np.array(self.data[n:]).reshape(d, d)
        return out

    def trace(self):
        d, n = self.dim, self.dim ** 2
        if self.backend == "float":
            im = self.data[n:]
            return complex(sum(self.data[:n:d + 1]), sum(im[::d + 1]) if im else 0.0)
        den, p, q = self.data
        re, im = slice(0, n, d + 1), slice(n, None, d + 1)
        return ExactComplex(QSqrt2(Fraction(sum(p[re]), den), Fraction(sum(q[re]), den)),
                            QSqrt2(Fraction(sum(p[im]), den), Fraction(sum(q[im]), den)))

    def real_trace(self):
        t = self.trace()
        return t.real if self.backend == "float" else t.re

    # -- arithmetic (results are not re-validated as Hermitian) -------------

    def _check(self, other):
        if self.dim != other.dim:
            raise ValidationError("dimension mismatch")
        if self.backend != other.backend:
            raise BackendError("mixed scalar backends")

    def __matmul__(self, other: "HermitianOperator") -> "HermitianOperator":
        self._check(other)
        matmul = _float_matmul if self.backend == "float" else _exact_matmul
        return HermitianOperator(self.dim, matmul(self.data, other.data, self.dim),
                                 self.backend, validate=False)

    def __add__(self, other):
        return self._combine(add, other)

    def __sub__(self, other):
        return self._combine(sub, other)

    def _combine(self, op, other):
        self._check(other)
        if self.backend == "float":
            data = _float_combine(op, self.data, other.data, self.dim ** 2)
        else:
            data = _exact_combine(op, self.data, other.data)
        return HermitianOperator(self.dim, data, self.backend, validate=False)

    def scale(self, s):
        """The operator times a real scalar: a float, or an element of Q(sqrt(2))."""
        if self.backend == "float":
            s = float(s)
            return HermitianOperator(self.dim, tuple(x * s for x in self.data), "float",
                                     validate=False)
        d, (w,) = _zi_ints([ExactComplex(s)])
        form = _zi_form(self.data[0] * d,
                        [_zi_mul(x, w) for x in _zi_entries(self.data, self.dim ** 2)])
        return HermitianOperator(self.dim, form, "exact", validate=False)

    def close_to(self, other: "HermitianOperator") -> bool:
        self._check(other)
        if self.backend == "float":
            n = self.dim ** 2
            return _float_small(_float_combine(sub, self.data, other.data, n), n,
                                10 * get_eps())
        return self.data == other.data

    def is_zero(self) -> bool:
        if self.backend == "float":
            return _float_small(self.data, self.dim ** 2, 10 * get_eps())
        return not (self.data[1] or self.data[2])

    # -- serialization (row-major complex arrays) ---------------------------

    def to_json(self) -> dict:
        d = self.dim
        if self.backend == "float":
            n = d * d
            imag = self.data[n:] or (0.0,) * n
            re = [list(self.data[k:k + d]) for k in range(0, n, d)]
            im = [list(imag[k:k + d]) for k in range(0, n, d)]
        else:
            rows = self.entries()
            re = [[float(x.re) for x in row] for row in rows]
            im = [[float(x.im) for x in row] for row in rows]
        return {"dim": d, "re": re, "im": im}

    @classmethod
    def from_json(cls, obj: dict):
        dim, data = _json_operator(obj)
        return cls(dim, data, "float")

    def __repr__(self):
        return f"HermitianOperator(dim={self.dim}, backend={self.backend!r})"


def _json_operator(obj):
    """``(dim, data)`` of operator JSON, type-checked, as float data."""
    if not isinstance(obj, dict):
        raise ValidationError("operator JSON must be an object")
    dim = obj.get("dim")
    if isinstance(dim, bool) or not isinstance(dim, int):
        raise ValidationError("operator JSON needs an integer dim")
    return dim, _pack(_json_entries(obj.get("re"), dim), _json_entries(obj.get("im"), dim))


def _json_entries(rows, dim: int) -> list:
    """The entries of a dim x dim JSON matrix, row-major, as floats. Only
    JSON numbers are entries: booleans, strings and nulls are not."""
    if not (isinstance(rows, list) and len(rows) == dim
            and all(isinstance(r, list) and len(r) == dim for r in rows)):
        raise ValidationError("operator JSON has wrong shape")
    flat = [x for r in rows for x in r]
    if not set(map(type, flat)) <= {int, float}:
        raise ValidationError("operator JSON entries are not numbers")
    try:
        return list(map(float, flat))
    except OverflowError:
        raise ValidationError("operator JSON entry is too large for a float") from None


# ---------------------------------------------------------------------------
# projectors
# ---------------------------------------------------------------------------


def _float_canonical_key(data, n: int):
    # the projection matrix is a canonical invariant of its range; round so
    # that subspace equality gives key equality at desk scale. Like
    # np.round(x, 6) + 0.0 this is rint(x * 1e6) / 1e6 in doubles with -0.0
    # cleared: round() returns an int, and a zero int divides to +0.0
    re = [round(x * 1e6) / 1e6 for x in data[:n]]
    im = [round(y * 1e6) / 1e6 for y in data[n:]] or [0.0] * n
    return tuple(zip(re, im))


class Projector:
    """A finite-dimensional orthogonal projection in canonical form.

    The stored matrix P itself is the canonical representation: P is uniquely
    determined by its range, so two projectors agree as subspaces iff their
    matrices agree entrywise (exactly, or within the float tolerance).
    """

    __slots__ = ("matrix", "rank", "_key", "key_bytes")

    def __init__(self, matrix: HermitianOperator, validate: bool = True):
        self.matrix = matrix
        if validate:
            if not (matrix @ matrix).close_to(matrix):
                raise ValidationError("matrix is not idempotent")
        d, n = matrix.dim, matrix.dim ** 2
        if matrix.backend == "float":
            t = matrix.real_trace()
            r = round(t)
            if abs(t - r) > 1e-6:
                raise ValidationError("projector trace is not an integer")
            self._key = _float_canonical_key(matrix.data, n)
        else:
            den, p, q = matrix.data
            r, rest = divmod(sum(p[:n:d + 1]), den)
            if rest or sum(q[:n:d + 1]):
                raise ValidationError("projector trace is not an integer")
            self._key = _exact_key(matrix.data, n)
        self.rank = r
        # what a context id hashes for this atom
        self.key_bytes = repr(self._key).encode()

    @property
    def dim(self) -> int:
        return self.matrix.dim

    @property
    def backend(self) -> str:
        return self.matrix.backend

    @property
    def canonical_key(self):
        return self._key

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, dim: int, backend: str = "float"):
        return cls(HermitianOperator.zero(dim, backend), validate=False)

    @classmethod
    def identity(cls, dim: int, backend: str = "float"):
        return cls(HermitianOperator.identity(dim, backend), validate=False)

    @classmethod
    def from_ray(cls, vec, backend: str = "float"):
        """Rank-1 projector v v* / <v, v>; the ray need not be normalized."""
        if backend == "float":
            ray = _scaled_float_ray(vec)
            if ray is None:
                raise ValidationError("zero ray")
            re, im, n = ray
            # v_i conj(v_j) = (a + ib)(c - ie)
            pairs = [(a, b, c, e) for a, b in zip(re, im) for c, e in zip(re, im)]
            data = _pack([(a * c + b * e) / n for a, b, c, e in pairs],
                         [(b * c - a * e) / n for a, b, c, e in pairs])
            return cls(HermitianOperator(len(re), data, "float", validate=False))
        m, n = _ray_ints(vec)
        _check_idempotent_ints(m, n)
        form = _zi_form(n, [x for row in m for x in row])
        return cls(HermitianOperator(len(m), form, "exact", validate=False), validate=False)

    @classmethod
    def from_span(cls, vecs, backend: str = "float"):
        """Projector onto the span of the given vectors: on the float
        backend the left singular vectors whose singular value exceeds
        1e-10 * max(1, largest), so dependent vectors keep the whole span;
        on the exact one the sum of the ray projectors of each vector's
        residual against the span of the vectors before it."""
        if len(vecs) == 0:
            raise ValidationError("no vectors to span: the dimension is unknown")
        if backend == "float":
            import numpy as np

            v = np.array(vecs, dtype=complex).T
            u, sigma, _ = np.linalg.svd(v, full_matrices=False)
            q = u[:, sigma > 1e-10 * max(1.0, float(sigma.max(initial=0.0)))]
            return cls(HermitianOperator.from_entries((q @ q.conj().T).tolist(), validate=False))
        dim = len(vecs[0])
        form = HermitianOperator.zero(dim, "exact").data
        for vec in vecs:
            if len(vec) != dim:
                raise ValidationError("span vectors differ in length")
            _, w = _zi_ints(map(exact_entry, vec))
            # D (I - P) w for the projector P = M / D built so far; it is
            # orthogonal to the range of P, so each sum stays a projector
            den = form[0]
            residual = [tuple(den * x - y for x, y in zip(u, pu))
                        for u, pu in zip(w, _zi_apply(form, w, dim))]
            if any(map(any, residual)):
                m, n = _zi_ray(residual)
                form = _exact_combine(add, form, _zi_form(n, [x for row in m for x in row]))
        return cls(HermitianOperator(dim, form, "exact", validate=False), validate=False)

    @classmethod
    def from_matrix(cls, op: HermitianOperator):
        return cls(op, validate=True)

    # -- algebra ------------------------------------------------------------

    def complement(self) -> "Projector":
        eye = HermitianOperator.identity(self.dim, self.backend)
        return Projector(eye - self.matrix, validate=False)

    def orthogonal_to(self, other: "Projector") -> bool:
        """PQ = 0, decided via tr(PQ) = 0 (equivalent for projectors)."""
        return _trace_is(self, other, 0)

    def leq(self, other: "Projector") -> bool:
        """Subspace order: P <= Q, decided via tr(PQ) = tr(P). Equal
        projectors (equal canonical keys, as in ``__eq__``) need no test:
        within the float tolerance tr(PP) can miss rank P."""
        return self.key_bytes == other.key_bytes or _trace_is(self, other, self.rank)

    def is_zero(self) -> bool:
        return self.rank == 0

    def __eq__(self, other):
        if not isinstance(other, Projector):
            return NotImplemented
        # the canonical key, not a tolerance, so that equal projectors hash
        # alike and get the same context id
        return self.backend == other.backend and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return f"Projector(dim={self.dim}, rank={self.rank}, backend={self.backend!r})"

    def to_json(self) -> dict:
        return self.matrix.to_json()


def _trace_is(p: Projector, q: Projector, k: int) -> bool:
    """Whether tr(PQ) equals the integer k: exactly on the exact backend,
    within ``10 * eps`` on the float one. With k = 0 it decides
    orthogonality, with k = rank(P) the order P <= Q."""
    if p.matrix.backend == "exact":
        r, s, d = _exact_trace_parts(p.matrix, q.matrix)
        return r == k * d and s == 0
    return abs(_product_trace(p.matrix, q.matrix) - k) <= 10 * get_eps()


def _exact_key(form, n: int):
    """``ExactComplex.key()`` of each entry, read from the integer form: the
    reduced numerator and denominator of its four rational parts."""
    den, p, q = form
    part = {x: (x // g, den // g) for x in {0, *p, *q} for g in (gcd(x, den),)}
    return tuple(part[a] + part[b] + part[c] + part[e] for a, b, c, e in _zi_entries(form, n))


def _scaled_float_ray(vec):
    """``(re, im, n)``: the parts of a float ray divided by its largest
    absolute part, and the squared norm n of the result, which lies in
    [1, 2 dim]. None for the zero ray. Scaling first keeps tiny and huge
    rays from underflowing or overflowing <v, v>."""
    entries = [complex(x) for x in vec]
    top = max((max(abs(z.real), abs(z.imag)) for z in entries), default=0.0)
    if top == 0:
        return None
    re = [z.real / top for z in entries]
    im = [z.imag / top for z in entries]
    return re, im, sum(x * x for x in re) + sum(y * y for y in im)


# Exact ray projectors are built over Z[sqrt(2)][i]: an element
# (a + b sqrt(2)) + i (c + e sqrt(2)) is the int 4-tuple (a, b, c, e).


def _zi_mul(x, y):
    a, b, c, e = x
    f, g, h, k = y
    return (a * f + 2 * b * g - c * h - 2 * e * k,
            a * g + b * f - c * k - e * h,
            a * h + 2 * b * k + c * f + 2 * e * g,
            a * k + b * h + c * g + e * f)


def _ray_ints(vec):
    """``(M, N)`` with v v* / <v, v> = M / N for a nonzero exact ray v.

    The ray is scaled to w over Z[sqrt(2)][i], so <w, w> = A + B sqrt(2)
    with integers A, B. Its inverse is (A - B sqrt(2)) / N with
    N = A^2 - 2 B^2, which is positive: it is <w', w'> for the Galois
    conjugate w' of w, and w' != 0. So M = w w* (A - B sqrt(2)), a matrix
    of 4-tuples.
    """
    _, w = _zi_ints(map(exact_entry, vec))
    return _zi_ray(w)


def _zi_ray(w):
    """``(M, N)`` of ``_ray_ints`` for a ray of Z[sqrt(2)][i] 4-tuples."""
    big_a = sum(a * a + 2 * b * b + c * c + 2 * e * e for a, b, c, e in w)
    if big_a == 0:
        raise ValidationError("zero ray")
    big_b = 2 * sum(a * b + c * e for a, b, c, e in w)
    scaled = [_zi_mul(x, (big_a, -big_b, 0, 0)) for x in w]
    m = [[_zi_mul(u, (a, b, -c, -e)) for a, b, c, e in w] for u in scaled]
    return m, big_a * big_a - 2 * big_b * big_b


def _zi_apply(form, w, dim: int) -> list:
    """D A w as Z[sqrt(2)][i] 4-tuples, for the integer form (D, p, q) of A
    and a vector w of 4-tuples."""
    x = _zi_entries(form, dim * dim)
    return [tuple(map(sum, zip(*map(_zi_mul, x[k:k + dim], w))))
            for k in range(0, dim * dim, dim)]


def _check_idempotent_ints(m, n: int) -> None:
    """Raise unless (M / n)^2 = M / n, decided as M M == n M in integers."""
    dim = len(m)
    for row in m:
        for j in range(dim):
            square = [sum(c) for c in zip(*(_zi_mul(row[k], m[k][j]) for k in range(dim)))]
            if square != [n * x for x in row[j]]:
                raise ValidationError("matrix is not idempotent")


def _exact_trace_parts(a: HermitianOperator, b: HermitianOperator):
    """Integers ``(r, s, D)`` with tr(AB) = (r + s sqrt(2)) / D, exact backend.

    For Hermitian A and B, tr(AB) = sum_ij A_ij conj(B_ij), a dot product of
    the integer forms; ``map`` stops at the shorter vector, which is where
    the dropped trailing zeros would have been.
    """
    a._check(b)
    da, pa, qa = a.data
    db, pb, qb = b.data
    r = sum(map(mul, pa, pb)) + 2 * sum(map(mul, qa, qb))
    s = sum(map(mul, pa, qb)) + sum(map(mul, qa, pb))
    return r, s, da * db


def _product_trace(a: HermitianOperator, b: HermitianOperator):
    """tr(AB) without forming the product, for Hermitian B: the real part of
    the dot product sum_ij A_ij conj(B_ij), a float or a QSqrt2. On the float
    backend it is sum(a_r b_r + a_i b_i) over the flat data; ``map`` stops at
    the shorter tuple, where dropped imaginary parts would add only zeros."""
    if a.backend == "float":
        a._check(b)
        return sum(map(mul, a.data, b.data))
    r, s, d = _exact_trace_parts(a, b)
    return QSqrt2(Fraction(r, d), Fraction(s, d))


def _exact_is_psd(data, dim) -> bool:
    """Positive semidefiniteness of an exact Hermitian matrix by symmetric
    (LDL*) elimination: each pivot is a diagonal entry of a Schur complement
    and must be non-negative, and a zero pivot needs a zero row, because a
    PSD matrix with a zero diagonal entry is zero on that row."""
    m = [list(row) for row in data]
    for k in range(dim):
        pivot = m[k][k]
        sign = pivot.re.sign()
        if sign < 0:
            return False
        if sign == 0:
            if any(not m[k][j].is_zero() for j in range(k + 1, dim)):
                return False
            continue
        for i in range(k + 1, dim):
            f = m[i][k] / pivot
            for j in range(k + 1, dim):
                m[i][j] = m[i][j] - f * m[k][j]
    return True


# ---------------------------------------------------------------------------
# density matrices
# ---------------------------------------------------------------------------


class DensityMatrix:
    """A positive semidefinite, trace-one Hermitian operator."""

    __slots__ = ("matrix",)

    def __init__(self, matrix: HermitianOperator, validate: bool = True):
        self.matrix = matrix
        if not validate:
            return
        if matrix.backend == "exact":
            trace_one = matrix.trace() == 1
            psd = _exact_is_psd(matrix.entries(), matrix.dim)
        else:
            trace_one = abs(matrix.real_trace() - 1.0) <= 1e-7
            import numpy as np

            psd = np.linalg.eigvalsh(matrix.to_complex_array()).min() >= -1e-7
        if not trace_one:
            raise ValidationError("density matrix trace is not 1")
        if not psd:
            raise ValidationError("density matrix is not positive semidefinite")

    @property
    def dim(self) -> int:
        return self.matrix.dim

    @property
    def backend(self) -> str:
        return self.matrix.backend

    @classmethod
    def from_diag(cls, weights: Sequence, backend: str = "float"):
        return cls(HermitianOperator.diag(list(weights), backend))

    @classmethod
    def pure(cls, vec, backend: str = "float"):
        """|v><v| / <v, v> for a nonzero vector v."""
        p = Projector.from_ray(vec, backend)
        return cls(p.matrix, validate=False)

    @classmethod
    def maximally_mixed(cls, dim: int, backend: str = "float"):
        s = 1 / dim if backend == "float" else Fraction(1, dim)
        return cls(HermitianOperator.identity(dim, backend).scale(s), validate=False)

    @classmethod
    def from_json(cls, obj: dict):
        return cls(HermitianOperator.from_json(obj))


def born_probability(rho: DensityMatrix, p: Projector):
    """tr(rho P), clamped into [0,1] when the excursion is within tolerance.

    Returns a float on the float backend and a QSqrt2 on the exact backend.
    """
    if rho.dim != p.dim:
        raise ValidationError("dimension mismatch")
    if rho.backend != p.backend:
        raise BackendError("mixed scalar backends")
    if rho.backend == "exact":
        return _product_trace(rho.matrix, p.matrix)
    v = _product_trace(rho.matrix, p.matrix).real
    eps = get_eps()
    if v < 0:
        if v < -100 * eps:
            raise ValidationError(f"Born probability {v} far outside [0,1]")
        v = 0.0
    if v > 1:
        if v > 1 + 100 * eps:
            raise ValidationError(f"Born probability {v} far outside [0,1]")
        v = 1.0
    return v

