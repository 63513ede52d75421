"""Constructors for the nilpotent Lie algebras of dimension <= 6.

Keys name either an abelian algebra A(n), a Heisenberg algebra H(m), or an
indexed entry L<dim>_<k> of the dimension <= 6 classification, four of the
dim-6 entries carrying a scalar parameter written ``L6_19(e=2)``.  Relation
lists are transcribed verbatim; L6_k = L5_k + A(1) for k <= 9 is L5_k's
list read at dimension 6, x6 central.  ``build`` does not re-check the Jacobi
identity: ``tests/test_catalog.py`` validates every entry once, and each
epsilon family at four values of epsilon, which proves it for every epsilon
over every field, so a transcription slip cannot survive silently.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .algebra import MAX_DIM, LieAlgebra
from .linalg import MAX_EXPONENT, QQ, SHOWN_CHARS, LiecapError, _shown


class CatalogError(LiecapError):
    pass


class UnknownKey(CatalogError):
    pass


class EpsilonRequired(CatalogError):
    pass


class EpsilonForbidden(CatalogError):
    pass


class UnsupportedDimension(CatalogError):
    pass


EPSILON_INDICES = frozenset({19, 21, 22, 24})  # at dimension 6
INDEX_RANGES = {3: 2, 4: 3, 5: 9, 6: 28}
DEFAULT_EPSILON_SAMPLES = (0, 1, -1, 2)


@dataclass(frozen=True)
class CatalogKey:
    """A(n) | H(m) | indexed entry (dim, index, optional epsilon)."""

    kind: str                 # "A" | "H" | "L"
    a: int                    # n for A, m for H, dim for L
    b: int = 0                # index for L
    epsilon: object = None    # exact scalar for parameterized entries

    def __str__(self):
        if self.kind == "A":
            return f"A{self.a}"
        if self.kind == "H":
            return f"H{self.a}"
        if self.epsilon is None:
            return f"L{self.a}_{self.b}"
        return f"L{self.a}_{self.b}(e={self.epsilon})"

    @property
    def is_epsilon_family(self):
        return self.kind == "L" and self.a == 6 and self.b in EPSILON_INDICES


def abelian_key(n):
    return CatalogKey("A", n)


def heisenberg_key(m):
    return CatalogKey("H", m)


def indexed_key(dim, index, epsilon=None):
    return CatalogKey("L", dim, index, epsilon)


# relation lists, 1-based indices; value 1 unless stated otherwise.
# "[x2,,x3]" in the fifth dim-5 entry is read as [x2,x3]=x5 and the
# unbalanced "[x1,x5=x6" in the twentieth dim-6 entry as [x1,x5]=x6 (the
# unique completions consistent with neighbouring entries).
_RELATIONS = {
    (3, 1): {},
    (3, 2): {(1, 2): {3: 1}},
    (4, 1): {},
    (4, 2): {(1, 2): {3: 1}},
    (4, 3): {(1, 2): {3: 1}, (1, 3): {4: 1}},
    (5, 1): {},
    (5, 2): {(1, 2): {3: 1}},
    (5, 3): {(1, 2): {3: 1}, (1, 3): {4: 1}},
    (5, 4): {(1, 2): {5: 1}, (3, 4): {5: 1}},
    (5, 5): {(1, 2): {3: 1}, (1, 3): {5: 1}, (2, 4): {5: 1}},
    (5, 6): {(1, 2): {3: 1}, (1, 3): {4: 1}, (1, 4): {5: 1}, (2, 3): {5: 1}},
    (5, 7): {(1, 2): {3: 1}, (1, 3): {4: 1}, (1, 4): {5: 1}},
    (5, 8): {(1, 2): {4: 1}, (1, 3): {5: 1}},
    (5, 9): {(1, 2): {3: 1}, (1, 3): {4: 1}, (2, 3): {5: 1}},
    (6, 10): {(1, 2): {3: 1}, (1, 3): {6: 1}, (4, 5): {6: 1}},
    (6, 11): {(1, 2): {3: 1}, (1, 3): {4: 1}, (1, 4): {6: 1}, (2, 3): {6: 1},
              (2, 5): {6: 1}},
    (6, 12): {(1, 2): {3: 1}, (1, 3): {4: 1}, (1, 4): {6: 1}, (2, 5): {6: 1}},
    (6, 13): {(1, 2): {3: 1}, (1, 3): {5: 1}, (2, 4): {5: 1}, (1, 5): {6: 1},
              (3, 4): {6: 1}},
    (6, 14): {(1, 2): {3: 1}, (1, 3): {4: 1}, (1, 4): {5: 1}, (2, 3): {5: 1},
              (2, 5): {6: 1}, (3, 4): {6: -1}},
    (6, 15): {(1, 2): {3: 1}, (1, 3): {4: 1}, (1, 4): {5: 1}, (2, 3): {5: 1},
              (1, 5): {6: 1}, (2, 4): {6: 1}},
    (6, 16): {(1, 2): {3: 1}, (1, 3): {4: 1}, (1, 4): {5: 1}, (2, 5): {6: 1},
              (3, 4): {6: -1}},
    (6, 17): {(1, 2): {3: 1}, (1, 3): {4: 1}, (1, 4): {5: 1}, (1, 5): {6: 1},
              (2, 3): {6: 1}},
    (6, 18): {(1, 2): {3: 1}, (1, 3): {4: 1}, (1, 4): {5: 1}, (1, 5): {6: 1}},
    (6, 19): {(1, 2): {4: 1}, (1, 3): {5: 1}, (1, 5): {6: 1}, (2, 4): {6: 1}},
    (6, 20): {(1, 2): {4: 1}, (1, 3): {5: 1}, (1, 5): {6: 1}, (2, 4): {6: 1}},
    (6, 21): {(1, 2): {3: 1}, (1, 3): {4: 1}, (2, 3): {5: 1}, (1, 4): {6: 1}},
    (6, 22): {(1, 2): {5: 1}, (1, 3): {6: 1}, (3, 4): {5: 1}},
    (6, 23): {(1, 2): {3: 1}, (1, 3): {5: 1}, (1, 4): {6: 1}, (2, 4): {5: 1}},
    (6, 24): {(1, 2): {3: 1}, (1, 3): {5: 1}, (2, 3): {6: 1}, (2, 4): {5: 1}},
    (6, 25): {(1, 2): {3: 1}, (1, 3): {5: 1}, (1, 4): {6: 1}},
    (6, 26): {(1, 2): {4: 1}, (1, 3): {5: 1}, (2, 3): {6: 1}},
    (6, 27): {(1, 2): {3: 1}, (1, 3): {5: 1}, (2, 4): {6: 1}},
    (6, 28): {(1, 2): {3: 1}, (1, 3): {4: 1}, (1, 4): {5: 1}, (2, 3): {6: 1}},
}

# the extra bracket carrying the epsilon coefficient
_EPSILON_BRACKET = {
    (6, 19): ((3, 5), 6),
    (6, 21): ((2, 5), 6),
    (6, 22): ((2, 4), 6),
    (6, 24): ((1, 4), 6),
}

_STRUCTURE_NOTES = {
    (3, 1): "A(3)",
    (3, 2): "H(1), A(1) ⋉ A(2)",
    (4, 1): "A(4)",
    (4, 2): "H(1) ⊕ A(1)",
    (4, 3): "A(1) ⋉ A(3)",
    (5, 1): "A(5)",
    (5, 2): "H(1) ⊕ A(2)",
    (5, 3): "L4_3 ⊕ A(1)",
    (5, 4): "H(2)",
    (5, 5): "A(1) ⋉ L4_3",
    (6, 11): "A(1) ⋉ L5_6",
    (6, 12): "A(1) ⋉ L5_7",
    (6, 13): "A(1) ⋉ L5_7",
}


@dataclass(frozen=True)
class CatalogEntry:
    key: CatalogKey
    algebra: LieAlgebra
    structure_note: str = ""


def abelian_algebra(n, field=QQ):
    if n < 0:
        raise UnknownKey(f"A({n}): n must be at least 0")
    return LieAlgebra(field, n, {})


def heisenberg_algebra(m, field=QQ):
    """H(m): basis x1..x2m, x with [x_{2i-1}, x_{2i}] = x."""
    if m < 1:
        raise UnknownKey(f"H({m}): m must be at least 1")
    brackets = {(2 * i, 2 * i + 1): {2 * m: field.one} for i in range(m)}
    labels = tuple(f"x{i + 1}" for i in range(2 * m)) + ("x",)
    return LieAlgebra(field, 2 * m + 1, brackets, labels=labels)


def _index_out_of_range(key, dim):
    return UnknownKey(f"{_shown(key, str)}: dimension {dim} has indices 1..{INDEX_RANGES[dim]}")


def _build_indexed(dim, index, epsilon, field):
    if dim not in INDEX_RANGES:
        raise UnsupportedDimension(
            f"indexed entries cover dimensions 3..6 only, got {_shown(dim)}")
    if not 1 <= index <= INDEX_RANGES[dim]:
        raise _index_out_of_range(f"L{dim}_{index}", dim)
    family = (dim, index) in _EPSILON_BRACKET
    if family and epsilon is None:
        raise EpsilonRequired(f"L{dim}_{index} needs an epsilon value")
    if not family and epsilon is not None:
        raise EpsilonForbidden(f"L{dim}_{index} takes no epsilon")
    relations = _RELATIONS[(5, index) if dim == 6 and index <= 9 else (dim, index)]
    brackets = {}
    for (i, j), row in relations.items():
        brackets[(i - 1, j - 1)] = {k - 1: field.from_int(c) for k, c in row.items()}
    if family:
        (i, j), k = _EPSILON_BRACKET[(dim, index)]
        eps = field.coerce(epsilon)
        if eps:
            row = dict(brackets.get((i - 1, j - 1), {}))
            row[k - 1] = eps
            brackets[(i - 1, j - 1)] = row
    return LieAlgebra(field, dim, brackets)


def build(key, field=QQ):
    """Construct the catalog entry; the result always passes ``validate``
    (see the module docstring)."""
    if key.kind == "A":
        alg, note = abelian_algebra(key.a, field), f"A({key.a})"
    elif key.kind == "H":
        alg, note = heisenberg_algebra(key.a, field), f"H({key.a})"
    elif key.kind == "L":
        alg = _build_indexed(key.a, key.b, key.epsilon, field)
        note = _STRUCTURE_NOTES.get((key.a, key.b), "")
        if key.a == 6 and key.b <= 9:
            note = f"L5_{key.b} ⊕ A(1)"
    else:
        raise UnknownKey(f"unknown key kind {key.kind!r}")
    return CatalogEntry(key, alg, note)


def list_keys(dim):
    """All keys of one dimension; epsilon families appear once, unparameterized."""
    if dim < 1:
        raise UnsupportedDimension(
            f"dimension {_shown(dim)} is outside the supported range 1..6")
    if dim > 6:
        raise UnsupportedDimension(
            "classification stops at dimension 6; dimension 7 already has "
            "one-parameter families of mutually non-isomorphic algebras")
    if dim <= 2:
        return [abelian_key(dim)]
    return [indexed_key(dim, k) for k in range(1, INDEX_RANGES[dim] + 1)]


def expand_keys(dim, field=QQ, epsilon_samples=DEFAULT_EPSILON_SAMPLES):
    """Keys of one dimension with epsilon families expanded over the samples."""
    out = []
    for key in list_keys(dim):
        if key.is_epsilon_family:
            out.extend(indexed_key(key.a, key.b, field.coerce(e))
                       for e in epsilon_samples)
        else:
            out.append(key)
    return out


def all_keys(max_dim=6, field=QQ, epsilon_samples=DEFAULT_EPSILON_SAMPLES):
    out = []
    for dim in range(1, max_dim + 1):
        out.extend(expand_keys(dim, field, epsilon_samples))
    return out


_KEY_RE = re.compile(
    r"^(?:A(?P<an>\d+)|H(?P<hm>\d+)|L(?P<dim>\d)_(?P<idx>\d+)"
    r"(?:\(e=(?P<eps>-?\d+(?:/\d+)?)\))?)$")


def parse_key(text, field=QQ):
    """Parse the CLI key syntax: A3, H2, L5_4, L6_19(e=2)."""
    m = _KEY_RE.match(text.strip())
    if not m:
        raise UnknownKey(f"cannot parse key {_shown(text)}")
    # a number of more than SHOWN_CHARS digits is out of range, and is named
    # by its length before int(), which refuses more than 4,300 digits
    an, hm = m.group("an"), m.group("hm")
    if an is not None or hm is not None:
        # the work on Lambda^2 grows with its C(dim, 2) coordinates (MAX_DIM)
        digits = (an or hm).lstrip("0")
        if len(digits) > SHOWN_CHARS:
            # the length _shown gives the dimension n or 2m + 1, which has a
            # digit more than m when m leads with 5 or more
            size = len(digits) + (hm is not None and digits[0] >= "5")
            shown = f"an int of {size} characters"
        else:
            dim = int(an) if an is not None else 2 * int(hm) + 1
            if dim <= MAX_DIM:
                return abelian_key(int(an)) if an is not None else heisenberg_key(int(hm))
            shown = _shown(dim)
        raise CatalogError(f"{_shown(text.strip(), str)} has dimension {shown}, "
                           f"beyond {MAX_DIM}")
    dim, idx = int(m.group("dim")), m.group("idx")
    if dim not in INDEX_RANGES:
        raise UnknownKey(f"no indexed entries in dimension {dim}")
    if len(idx.lstrip("0")) > SHOWN_CHARS:
        raise _index_out_of_range(text.strip(), dim)
    idx = int(idx)
    eps = m.group("eps")
    if eps is None:
        return indexed_key(dim, idx)
    return indexed_key(dim, idx, parse_epsilon(eps, field))


def parse_epsilon(text, field):
    """The scalar of an epsilon written as an integer, p/q or a decimal."""
    try:
        return field.parse(text)
    except ZeroDivisionError:
        raise CatalogError(f"epsilon {_shown(text, str)} has a zero denominator "
                           f"in {field!r}") from None
    except ValueError:
        raise CatalogError(f"epsilon {_shown(text)} is not an integer, p/q or decimal with "
                           f"exponent within +-{MAX_EXPONENT} in {field!r}") from None
