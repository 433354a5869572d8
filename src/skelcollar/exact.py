"""Exact arithmetic substrate: rationals, Laurent polynomials, polynomial
matrices, and one sparse elimination kernel.

Everything downstream is built from these pieces.

* Rational numbers are ``fractions.Fraction`` from the standard library,
  which already guarantees reduced form and a positive denominator.
* ``LaurentPoly`` is a sparse multivariate Laurent polynomial: a map from
  integer exponent vectors (negative exponents allowed) to nonzero Fraction
  coefficients, together with the ordered tuple of variable names the
  exponents refer to.  Construction canonicalizes: variables are sorted,
  zero coefficients are dropped, and variables that appear in no term are
  pruned, so ``==`` is structural equality of mathematical objects.
  The public constructor validates and canonicalizes whatever it is
  given, since it is the entry point for outside data (JSON, ``toric``,
  user code).  Results of the arithmetic (``+``, ``-``, ``*``,
  ``inverse``, ``diff``, ``monomial``) are canonical by construction and
  go through the private ``_from_canonical``, which skips that
  re-validation and only prunes variables that cancelled away.  A product
  with a one-term factor is an exponent shift of the other factor, its
  coefficients scaled only when the term's coefficient is not 1.
* Matrices of Laurent polynomials are tuples of rows (``PolyMatrix``)
  with product, substitution and the determinant of sizes 1 and 2.
* Linear algebra over the rationals has one elimination kernel:
  ``echelon`` reduces sparse rows ``{column: Fraction}``, always pivoting
  on a row's smallest column, and ``null_space`` back-substitutes its
  pivot rows into a reduced kernel basis, visiting only the rows that
  touch a column already solved.  Section counts and certificate
  searches are its only callers; there is no dense rational matrix.

No floating point is used anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add
from typing import Iterable, Mapping, Sequence


class ZeroIntoNegativePower(ValueError):
    """Raised when 0 is substituted into a variable with a negative exponent."""


class NotInvertible(ValueError):
    """Raised when inverting a Laurent polynomial that is not a single term."""


class VerificationFailed(Exception):
    """A check of the program's own answer failed or could not settle."""


Scalar = int | Fraction
_ZERO = Fraction(0)
_ONE = Fraction(1)


def as_fraction(value: Scalar | str) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"not an exact scalar: {value!r}")


class Record:
    """Immutable value type in place of a frozen dataclass, whose import cost
    most of CLI start-up.  Fields are the subclass's own annotations, in order,
    each required, by position or keyword; equality and hash go by type and
    values."""

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))

    def __init__(self, *args, **kwargs) -> None:
        fields = self._fields
        if kwargs or len(args) != len(fields):
            values = {**dict(zip(fields, args)), **kwargs}
            if len(values) < len(args) + len(kwargs) or values.keys() != set(fields):
                raise TypeError(f"{type(self).__name__}{fields} got {len(args)} and {sorted(kwargs)}")
            args = [values[f] for f in fields]
        # set one by one, never through __dict__, so that CPython keeps the
        # instance's inline values and fast attribute reads
        for name, value in zip(fields, args):
            object.__setattr__(self, name, value)
        self.__post_init__()

    def __post_init__(self) -> None:
        """Runs once the fields are set; may still use ``object.__setattr__``."""

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other: object) -> bool:
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        body = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name: str, *value: object) -> None:
        raise AttributeError(f"cannot set or delete {name!r}: records are immutable")

    __delattr__ = __setattr__


class LaurentPoly:
    """Sparse Laurent polynomial with Fraction coefficients.

    ``variables`` is a sorted tuple of names; ``terms`` maps exponent tuples
    (one entry per variable, any sign) to nonzero coefficients.
    """

    __slots__ = ("variables", "terms")

    def __init__(
        self, variables: Iterable[str], terms: Mapping[tuple[int, ...], Scalar]
    ) -> None:
        vars_in = tuple(variables)
        # names are checked before pruning: an unused bad name is still bad
        for name in vars_in:
            if not isinstance(name, str) or not name:
                raise ValueError(f"variable names must be non-empty strings, got {name!r}")
        if len(set(vars_in)) != len(vars_in):
            raise ValueError(f"duplicate variable name in {vars_in!r}")
        raw: dict[tuple[int, ...], Fraction] = {}
        for exps, coeff in terms.items():
            if not set(map(type, exps)) <= {int}:
                raise ValueError(f"exponents must be integers, got {exps!r}")
            if len(exps) != len(vars_in):
                raise ValueError("exponent tuple length does not match variables")
            c = as_fraction(coeff)
            if c:
                acc = raw.get(exps, _ZERO) + c
                if acc:
                    raw[exps] = acc
                else:
                    raw.pop(exps, None)
        # prune unused variables, then sort the survivors
        used = [i for i, v in enumerate(vars_in) if any(e[i] for e in raw)]
        kept = tuple(vars_in[i] for i in used)
        order = sorted(range(len(kept)), key=lambda i: kept[i])
        object.__setattr__(self, "variables", tuple(kept[i] for i in order))
        canon: dict[tuple[int, ...], Fraction] = {}
        for exps, c in raw.items():
            key = tuple(exps[used[i]] for i in order)
            canon[key] = c
        object.__setattr__(self, "terms", canon)

    @classmethod
    def _from_canonical(
        cls, variables: tuple[str, ...], terms: dict[tuple[int, ...], Fraction]
    ) -> "LaurentPoly":
        """Wrap an arithmetic result without re-validating it.

        The caller guarantees sorted, distinct ``variables``, ``int``
        exponent tuples of matching length and nonzero ``Fraction``
        coefficients; ``terms`` is owned by the result from here on.  Only
        variables that no term uses are pruned (z * z^-1 = 1 loses z).
        """
        if variables:
            used = [i for i, column in enumerate(zip(*terms)) if any(column)]
            if len(used) < len(variables):
                variables = tuple(variables[i] for i in used)
                terms = {tuple(e[i] for i in used): c for e, c in terms.items()}
        self = object.__new__(cls)
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "terms", terms)
        return self

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("LaurentPoly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls._from_canonical((), {})

    @classmethod
    def const(cls, value: Scalar) -> "LaurentPoly":
        c = as_fraction(value)
        return cls._from_canonical((), {(): c} if c else {})

    @classmethod
    def var(cls, name: str) -> "LaurentPoly":
        return cls._from_canonical((name,), {(1,): _ONE})

    @classmethod
    def monomial(cls, exponents: Mapping[str, int], coeff: Scalar = 1) -> "LaurentPoly":
        c = as_fraction(coeff)
        if not all(type(e) is int for e in exponents.values()):
            names = tuple(exponents)
            return cls(names, {tuple(exponents[v] for v in names): c})
        names = tuple(sorted(v for v, e in exponents.items() if e))
        return cls._from_canonical(
            names, {tuple(exponents[v] for v in names): c} if c else {}
        )

    # -- predicates --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_constant(self) -> bool:
        return not self.variables

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- arithmetic --------------------------------------------------------

    @staticmethod
    def _coerce(value: "LaurentPoly | Scalar") -> "LaurentPoly":
        if isinstance(value, LaurentPoly):
            return value
        return LaurentPoly.const(value)

    def _aligned(
        self, other: "LaurentPoly"
    ) -> tuple[tuple[str, ...], dict[tuple[int, ...], Fraction], dict[tuple[int, ...], Fraction]]:
        if self.variables == other.variables:
            return self.variables, self.terms, other.terms
        joint = tuple(sorted(set(self.variables) | set(other.variables)))

        def lift(p: LaurentPoly) -> dict[tuple[int, ...], Fraction]:
            pos = {v: i for i, v in enumerate(p.variables)}
            out = {}
            for exps, c in p.terms.items():
                out[tuple(exps[pos[v]] if v in pos else 0 for v in joint)] = c
            return out

        return joint, lift(self), lift(other)

    def __add__(self, other: "LaurentPoly | Scalar") -> "LaurentPoly":
        other = self._coerce(other)
        joint, a, b = self._aligned(other)
        out = dict(a)
        for exps, c in b.items():
            acc = out.get(exps, _ZERO) + c
            if acc:
                out[exps] = acc
            else:
                out.pop(exps, None)
        return LaurentPoly._from_canonical(joint, out)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._from_canonical(
            self.variables, {e: -c for e, c in self.terms.items()}
        )

    def __sub__(self, other: "LaurentPoly | Scalar") -> "LaurentPoly":
        return self + (-self._coerce(other))

    def __rsub__(self, other: "LaurentPoly | Scalar") -> "LaurentPoly":
        return self._coerce(other) - self

    def __mul__(self, other: "LaurentPoly | Scalar") -> "LaurentPoly":
        other = self._coerce(other)
        if self.is_zero or other.is_zero:
            return LaurentPoly.zero()
        joint, a, b = self._aligned(other)
        if len(b) == 1:
            a, b = b, a
        if len(a) == 1:
            # one term: a shift of the other factor, scaled unless by 1; a
            # shift is injective, so no keys merge or cancel
            ((ea, ca),) = a.items()
            scaled = ca != 1
            out = {tuple(map(add, ea, eb)): ca * cb if scaled else cb for eb, cb in b.items()}
            return LaurentPoly._from_canonical(joint, out)
        out: dict[tuple[int, ...], Fraction] = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                key = tuple(map(add, ea, eb))
                acc = out.get(key, _ZERO) + ca * cb
                if acc:
                    out[key] = acc
                else:
                    out.pop(key, None)
        return LaurentPoly._from_canonical(joint, out)

    __rmul__ = __mul__

    def inverse(self) -> "LaurentPoly":
        if len(self.terms) != 1:
            raise NotInvertible(f"not a unit monomial: {self}")
        ((exps, coeff),) = self.terms.items()
        return LaurentPoly._from_canonical(
            self.variables, {tuple(-e for e in exps): _ONE / coeff}
        )

    def __pow__(self, k: int) -> "LaurentPoly":
        if not isinstance(k, int):
            raise TypeError("exponent must be an integer")
        if k < 0:
            return self.inverse() ** (-k)
        result = LaurentPoly.const(1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    # -- calculus ----------------------------------------------------------

    def diff(self, var: str) -> "LaurentPoly":
        if var not in self.variables:
            return LaurentPoly.zero()
        i = self.variables.index(var)
        out: dict[tuple[int, ...], Fraction] = {}
        for exps, c in self.terms.items():
            e = exps[i]
            if e == 0:
                continue
            # exps -> key is injective and c * e is nonzero, so no term
            # merges or cancels
            out[exps[:i] + (e - 1,) + exps[i + 1 :]] = c * e
        return LaurentPoly._from_canonical(self.variables, out)

    def substitute(self, bindings: Mapping[str, "LaurentPoly | Scalar"]) -> "LaurentPoly":
        """Substitute polynomials for variables, exactly.

        A binding raised to a negative exponent must be invertible: zero
        raises ZeroIntoNegativePower, a non-monomial raises NotInvertible.
        """
        bound = {v: self._coerce(p) for v, p in bindings.items()}
        total = LaurentPoly.zero()
        for exps, coeff in self.terms.items():
            acc = LaurentPoly.const(coeff)
            for v, e in zip(self.variables, exps):
                if e == 0:
                    continue
                if v in bound:
                    repl = bound[v]
                    if repl.is_zero:
                        if e < 0:
                            raise ZeroIntoNegativePower(
                                f"0 substituted for {v} which occurs with exponent {e}"
                            )
                        acc = LaurentPoly.zero()
                        break
                    acc = acc * repl**e
                else:
                    acc = acc * LaurentPoly._from_canonical((v,), {(e,): _ONE})
            total = total + acc
        return total

    # -- degree bookkeeping --------------------------------------------------

    def exponents_of(self, var: str) -> tuple[int, ...]:
        if var not in self.variables:
            return (0,) * len(self.terms) if self.terms else ()
        i = self.variables.index(var)
        return tuple(e[i] for e in self.terms)

    def min_exponent(self, var: str) -> int:
        exps = self.exponents_of(var)
        return min(exps) if exps else 0

    def max_exponent(self, var: str) -> int:
        exps = self.exponents_of(var)
        return max(exps) if exps else 0

    def homogeneous_degree(self, group: Sequence[str]) -> int | None:
        """Total degree in ``group`` if every term has the same; else None."""
        if self.is_zero:
            return 0
        idx = [self.variables.index(v) for v in group if v in self.variables]
        degrees = {sum(e[i] for i in idx) for e in self.terms}
        if len(degrees) == 1:
            return degrees.pop()
        return None

    # -- structural protocol -------------------------------------------------

    def _key(self) -> tuple:
        return (self.variables, tuple(sorted(self.terms.items())))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.const(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        # a constant equals its Fraction value, so it must hash like it
        if not self.variables:
            return hash(self.terms.get((), _ZERO))
        return hash(self._key())

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Fraction]]:
        return sorted(self.terms.items(), reverse=True)

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts: list[str] = []
        for exps, coeff in self.sorted_terms():
            factors = []
            for v, e in zip(self.variables, exps):
                if e == 1:
                    factors.append(v)
                elif e != 0:
                    factors.append(f"{v}^{e}")
            body = "*".join(factors)
            mag = abs(coeff)
            if not body:
                chunk = str(mag)
            elif mag == 1:
                chunk = body
            else:
                chunk = f"{mag}*{body}"
            sign = "-" if coeff < 0 else "+"
            parts.append((sign, chunk))  # type: ignore[arg-type]
        first_sign, first_chunk = parts[0]
        text = ("-" if first_sign == "-" else "") + first_chunk
        for sign, chunk in parts[1:]:
            text += f" {sign} {chunk}"
        return text

    def __repr__(self) -> str:
        return f"LaurentPoly({self})"

    # -- serialization -------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "vars": list(self.variables),
            "terms": [
                {
                    "exp": list(exps),
                    "num": str(coeff.numerator),
                    "den": str(coeff.denominator),
                }
                for exps, coeff in self.sorted_terms()
            ],
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "LaurentPoly":
        # a string is iterable too: "zu" must not read as the names z and u
        if type(data) is not dict or not all(type(data.get(k)) is list for k in ("vars", "terms")):
            raise ValueError(f'a polynomial is an object with lists "vars" and "terms": {data!r}')
        terms: dict[tuple[int, ...], Fraction] = {}
        for t, item in enumerate(data["terms"]):
            for key in ("exp", "num", "den"):
                if type(item) is not dict or key not in item:
                    raise ValueError(f'term {t}: no "{key}"')
            exps = item["exp"]
            if type(exps) is not list or not all(type(e) is int for e in exps):
                raise ValueError(f'term {t}: "exp" must be a list of integers, got {exps!r}')
            exps = tuple(exps)
            if exps in terms:
                raise ValueError(f"duplicate exponent entry {list(exps)}")
            num, den = (_json_integer(item, key) for key in ("num", "den"))
            if den == 0:
                raise ValueError(f"zero denominator in the term at {list(exps)}")
            terms[exps] = Fraction(num, den)
        return cls(tuple(data["vars"]), terms)


def _json_integer(item: Mapping, key: str) -> int:
    """A coefficient field: a JSON integer (not a bool) or a string of one;
    a float would be silently truncated by ``int``."""
    value = item[key]
    if type(value) is int:
        return value
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
    raise ValueError(f'"{key}" must be an integer or a string of one, got {value!r}')


# -- matrices of Laurent polynomials ------------------------------------------

PolyMatrix = tuple[tuple[LaurentPoly, ...], ...]


def poly_mat_identity(k: int) -> PolyMatrix:
    one, zero = LaurentPoly.const(1), LaurentPoly.zero()
    return tuple(tuple(one if i == j else zero for j in range(k)) for i in range(k))


def poly_mat_mul(a: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
    if a and b and len(a[0]) != len(b):
        raise ValueError("matrix shape mismatch")
    out = []
    for row in a:
        new_row = []
        for j in range(len(b[0])):
            acc = LaurentPoly.zero()
            for k, entry in enumerate(row):
                acc = acc + entry * b[k][j]
            new_row.append(acc)
        out.append(tuple(new_row))
    return tuple(out)


def poly_mat_det(a: PolyMatrix) -> LaurentPoly:
    """Determinant of a 1 x 1 or 2 x 2 matrix, the only sizes of the
    transitions and frames the package builds."""
    k = len(a)
    if any(len(row) != k for row in a):
        raise ValueError("determinant of a non-square matrix")
    if k == 1:
        return a[0][0]
    if k == 2:
        return a[0][0] * a[1][1] - a[0][1] * a[1][0]
    raise ValueError(f"determinant of a {k} x {k} matrix: only sizes 1 and 2 are supported")


# -- sparse exact elimination ---------------------------------------------------

# a row or vector as {column: nonzero value}
SparseRow = dict[int, Fraction]


def echelon(rows: Mapping[object, Mapping[int, Fraction]]) -> dict[int, SparseRow]:
    """Forward elimination on sparse rows, taken in sorted key order.

    Each row is reduced at its smallest column by the pivot found there so
    far, so banded systems stay banded; a row that survives becomes the
    pivot of its smallest column.  Returns the pivot rows keyed by their
    lead column, in the order the rows were taken.  The lead columns are
    the leftmost independent columns, whatever the row order.
    """
    pivots: dict[int, SparseRow] = {}
    for key in sorted(rows):
        row = {cid: v for cid, v in rows[key].items() if v}
        while row:
            lead = min(row)
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = row
                break
            factor = row[lead] / pivot[lead]
            for cid, value in pivot.items():
                if cid not in row:
                    # both factors are nonzero, so the new cell is too
                    row[cid] = -factor * value
                    continue
                updated = row[cid] - factor * value
                if updated:
                    row[cid] = updated
                else:
                    del row[cid]
    return pivots


def null_space(pivots: Mapping[int, SparseRow], cols: int) -> list[SparseRow]:
    """Reduced basis of the right null space of ``echelon``'s pivot rows.

    One vector per free column f, ascending: 1 at f, 0 at every other free
    column, and the pivot columns solved by back-substitution in descending
    lead order.  A pivot row solves its lead to 0 unless it touches a column
    already in the vector, so an index built once per call maps each column
    to the leads of the other rows holding it, and only those rows are
    visited.  Every pending lead lies left of the rows already visited, so
    the largest pending lead is always the next in descending order.
    """
    touching: dict[int, list[int]] = {}
    for lead, row in pivots.items():
        for c in row:
            if c != lead:
                touching.setdefault(c, []).append(lead)
    basis = []
    for f in range(cols):
        if f in pivots:
            continue
        vec = {f: _ONE}
        pending = set(touching.get(f, ()))
        while pending:
            lead = max(pending)
            pending.remove(lead)
            row = pivots[lead]
            s = sum((x * vec[c] for c, x in row.items() if c in vec), _ZERO)
            if s:
                vec[lead] = -s / row[lead]
                pending.update(touching.get(lead, ()))
        basis.append(vec)
    return basis
