"""Symbol models: quasi-radial factors a(r_1..r_m) and generalized
pseudo-homogeneous factors c_j(s_(j), t_(j)).

A pseudo-homogeneous symbol is a bounded function of the group sphere
coordinate s in S_+^{k-1} and the torus coordinate t in T^k, invariant
under the diagonal torus action t -> (g t_1, ..., g t_k).  Its Fourier
modes in t are therefore supported on |p| = 0, so every symbol kind is a
mode table {p: profile}, built by one constructor (mode_symbol).  A
profile is either a polynomial in s, whose terms make block entries
closed-form, or a function of s assembled by quadrature.

User-defined symbols come in through a deliberately tiny expression
grammar: numbers, pi, i, variables r1.., s1.., t1.., exp(x), conj(x),
parentheses and + - * / ^ (alias **) with Python's precedence, so -x^y is
-(x^y) and 2^3^2 is 2^9; no control flow, no user functions.  Integers
with a leading zero, such as 07, and nesting past MAX_DEPTH levels (a
chain a + b + c nests a level a term) are refused.  One binder
(bind_expression) parses a text, checks its variables and returns its
evaluator; one compiler (_compile_modes) turns an expression into its
table of Fourier modes, each a sum of monomials in s: a polynomial in s, t
and conj(t) exactly, exp and division by truncated series with a certified
tail bound.  An expression without a torus variable declares the single
mode p = 0, and one that does not compile is assembled by quadrature; an
expression with a torus variable that does not compile is refused.
Quasi-radial expressions in r1..rm compile to their monomials the same way.
"""

from __future__ import annotations

import ast
import cmath
import math
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import SymbolError, SymbolParseError

Index = tuple[int, ...]


# ---------------------------------------------------------------------------
# Expression grammar
# ---------------------------------------------------------------------------

_NUMBER_RE = re.compile(r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?")
# Any character outside the grammar's alphabet; whitespace is any \s.
_UNEXPECTED_RE = re.compile(r"[^\sA-Za-z0-9_.+\-*/^(),]")
_FUNCTIONS = {"exp": np.exp, "conj": np.conj}
_CONSTANTS = {"pi": np.pi, "i": 1j}
_VAR_RE = re.compile(r"^[rst][1-9][0-9]*$")
_BINARY = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/", ast.Pow: "^"}
# Nesting past which a text is refused, Python's own limit on nested
# parentheses: the recursive walks below stay far from the interpreter's.
MAX_DEPTH = 200


# AST nodes are plain tuples: ("num", v) | ("var", name) | ("neg", node)
# | ("call", fname, node) | (op, left, right) with op in "+-*/^".


def _tuple_ast(node, src: str, back: list, depth: int = 0):
    """The tuple AST of a node that ast.parse made of ``src``, whose offset
    q is offset back[q] of the user's text.  A node outside the grammar, or
    nested past MAX_DEPTH, raises SymbolParseError."""
    at, segment = back[node.col_offset], src[node.col_offset : node.end_col_offset]
    if depth > MAX_DEPTH:
        raise SymbolParseError(f"expression nests deeper than {MAX_DEPTH} levels", at)

    def down(child):
        return _tuple_ast(child, src, back, depth + 1)

    match node:
        case ast.BinOp(left, op, right) if type(op) in _BINARY:
            return (_BINARY[type(op)], down(left), down(right))
        case ast.UnaryOp(ast.UAdd(), operand):
            return down(operand)
        case ast.UnaryOp(ast.USub(), operand):
            return ("neg", down(operand))
        case ast.Constant() if _NUMBER_RE.fullmatch(segment):
            return ("num", float(segment))
        case ast.Name(name) if name in _CONSTANTS:
            return ("num", complex(_CONSTANTS[name]))
        case ast.Name(name) if _VAR_RE.match(name):
            return ("var", name)
        # exp(x) or conj(x), but not (exp)(x) nor exp(x,).
        case ast.Call(ast.Name(name) as fn, [arg], []) if name in _FUNCTIONS and (
            fn.col_offset == node.col_offset and "," not in src[arg.end_col_offset : node.end_col_offset]
        ):
            return ("call", name, down(arg))
    raise SymbolParseError(f"{segment[:20]!r} is not in the grammar", at)


def _free_vars(node, out: set):
    tag = node[0]
    if tag == "var":
        out.add(node[1])
    elif tag == "neg":
        _free_vars(node[1], out)
    elif tag == "call":
        _free_vars(node[2], out)
    elif tag in "+-*/^":
        _free_vars(node[1], out)
        _free_vars(node[2], out)
    return out


def _eval_node(node, env: dict):
    tag = node[0]
    if tag == "num":
        return node[1]
    if tag == "var":
        try:
            return env[node[1]]
        except KeyError:
            raise SymbolError(f"unbound variable {node[1]!r} at evaluation")
    if tag == "neg":
        return -_eval_node(node[1], env)
    if tag == "call":
        return _FUNCTIONS[node[1]](_eval_node(node[2], env))
    left = _eval_node(node[1], env)
    right = _eval_node(node[2], env)
    if tag == "+":
        return left + right
    if tag == "-":
        return left - right
    if tag == "*":
        return left * right
    if tag == "/":
        return np.divide(left, right)
    if tag == "^":
        return np.power(np.asarray(left, dtype=complex), right)
    raise SymbolError(f"corrupt expression node {tag!r}")


@dataclass(frozen=True, eq=False)
class SymbolExpression:
    """Parsed symbol expression with its free variables."""

    text: str
    root: tuple
    variables: frozenset[str]

    def evaluate(self, env: dict):
        return _eval_node(self.root, env)


def parse_symbol_expression(text: str) -> SymbolExpression:
    """Parse a symbol expression; raises SymbolParseError with a character
    offset into ``text``.  Python's parser reads the text with ^ as ** and
    whitespace as spaces, its warnings raised as errors (a number run into a
    keyword warns), and _tuple_ast keeps the grammar's nodes."""
    import warnings

    if not text.strip():
        raise SymbolParseError("empty expression", 0)
    if bad := _UNEXPECTED_RE.search(text):
        raise SymbolParseError(f"unexpected character {bad.group()!r}", bad.start())
    lead = len(text) - len(text.lstrip())
    src = re.sub(r"\s", " ", text[lead:]).replace("^", "**")
    back = [i for i, c in enumerate(text) for _ in range(1 + (c == "^"))][lead:] + [len(text)]
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tree = ast.parse(src, mode="eval")
    except SyntaxError as exc:  # offset 1-based, and 0 at the end of the input
        raise SymbolParseError(exc.msg, back[min(exc.offset or len(back), len(back)) - 1]) from None
    except (RecursionError, MemoryError):
        raise SymbolParseError("expression is too deeply nested to parse", 0) from None
    root = _tuple_ast(tree.body, src, back)
    return SymbolExpression(text=text, root=root, variables=frozenset(_free_vars(root, set())))


def bind_expression(text: str, dim: int, prefixes: str) -> tuple[SymbolExpression, Callable]:
    """The parsed text and its evaluator; a variable of the text other than
    x1..x{dim} for a letter x of ``prefixes`` ("r", "s" or "st") raises
    SymbolError.  The evaluator takes one (..., dim) array per prefix, in
    order (torus coordinates complex, others real), or only the leading
    ones when the text uses no later prefix, and returns the values as a
    complex array broadcast over their leading axes.
    """
    expr = parse_symbol_expression(text)
    allowed = {f"{x}{l}" for x in prefixes for l in range(1, dim + 1)}
    extra = expr.variables - allowed
    if extra:
        raise SymbolError(
            f"expression {text!r} uses {sorted(extra)}; only {sorted(allowed)} allowed"
        )

    def evaluate(*coords):
        coords = [np.asarray(c, complex if x == "t" else float) for x, c in zip(prefixes, coords)]
        env = {f"{x}{l + 1}": c[..., l] for x, c in zip(prefixes, coords) for l in range(dim)}
        vals = expr.evaluate(env)
        return np.broadcast_to(np.asarray(vals, dtype=complex), np.broadcast(*coords).shape[:-1])

    return expr, evaluate


# Limits past which profiles are refused.  Closed-form entries evaluate
# log-Gamma differences whose rounding grows with the profile degree: against
# 40-digit values (k = 2, 3, d = 0, 3) the relative error is at most 6e-12 at
# degree 10^4, 6e-11 at 10^5 and 1e-7 at 10^8.  Expanding a polynomial costs
# up to the product of its operands' term counts; with at most
# MAX_PROFILE_TERMS terms at every step the worst case, (s1 + s2)^1023,
# compiles in under a second and a k = 3 profile of 990 terms assembles a
# degree-20 block (231 x 231) in under 2 s.
MAX_PROFILE_DEGREE = 10**4
MAX_PROFILE_TERMS = 1024
# Truncated series (exp, division): at most MAX_SERIES_LENGTH powers of the
# argument; each stops once its tail bound is at most SERIES_STEP_TOL of its
# mass, and a text certifies when its whole bound is at most SERIES_TOL of
# its mass, a mass at most SERIES_MASS_RATIO times its largest sampled
# |value|, so that cancellation costs a closed-form entry about 1e-13 of it.
MAX_SERIES_LENGTH = 256
SERIES_STEP_TOL = 1e-17
SERIES_TOL = 1e-15
SERIES_MASS_RATIO = 1e3


def _check_terms(poly: dict) -> dict:
    if len(poly) > MAX_PROFILE_TERMS:
        raise SymbolError(f"polynomial profile expands past {MAX_PROFILE_TERMS} terms")
    return poly


def _poly_mul(a: dict, b: dict) -> dict:
    out: dict[Index, complex] = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0j) + ca * cb
        _check_terms(out)
    return out


def _poly_add(a: dict, b: dict, sign: float) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0j) + sign * c
    return _check_terms(out)


@lru_cache(maxsize=1 << 16)
def _sup_weight(powers: Index) -> float:
    """sup of prod_l s_l^{a_l} over the sphere, reached at s_l^2 = a_l / |a|."""
    n = sum(powers)
    return math.exp(sum(a / 2 * math.log(a / n) for a in powers if a)) if n else 1.0


def _mass(poly: dict, dim: int) -> float:
    """Weighted l1 norm: sum |coeff| sup|monomial|, torus factors weighing 1.
    It is submultiplicative and bounds sup |poly| on sphere x torus."""
    return sum(abs(c) * _sup_weight(e[:dim]) for e, c in poly.items())


def _const_value(node) -> complex | None:
    """Value of a constant subtree as it is pointwise, or None if not finite."""
    with np.errstate(all="ignore"):
        try:
            value = complex(_eval_node(node, {}))
        except (ArithmeticError, ValueError):
            return None
    return value if np.isfinite(value) else None


def _power_exponent(node) -> int | None:
    """Exponent of a ^ node when it is a nonnegative integer constant."""
    if _free_vars(node[2], set()):
        return None
    n = _const_value(node[2])
    if n is None or n.imag != 0 or n.real < 0 or n.real != int(n.real):
        return None
    return int(n.real)


def _is_polynomial(node) -> bool:
    """Whether an AST is a polynomial in s, t and conj(t): no variable under
    exp or /, every ^ over variables a nonnegative integer constant power,
    every constant finite."""
    if not _free_vars(node, set()):
        return _const_value(node) is not None
    if node[0] == "/" or node[1] == "exp" or node[0] == "^" and _power_exponent(node) is None:
        return False
    return all(_is_polynomial(child) for child in node[1:] if isinstance(child, tuple))


def _mul(x: tuple, y: tuple, dim: int) -> tuple[dict, float]:
    """Product of two (terms, bound) pairs; the bounds of exact operands
    stay 0 without a mass being taken."""
    (a, ea), (b, eb) = x, y
    if not (ea or eb):
        return _poly_mul(a, b), 0.0
    return _poly_mul(a, b), _mass(a, dim) * eb + _mass(b, dim) * ea + ea * eb


def _series(x: dict, coeff: Callable, tail: Callable, dim: int) -> tuple[dict, float]:
    """sum_{n < N} coeff(n) x^n and tail(N, a), a bound on the rest for x of
    mass a; N is the first n at which that bound is at most SERIES_STEP_TOL
    of the sum's mass."""
    zero = (0,) * (2 * dim)
    a = _mass(x, dim)
    total, power = {zero: coeff(0) + 0j}, {zero: 1 + 0j}
    for n in range(1, MAX_SERIES_LENGTH + 1):
        if tail(n, a) <= SERIES_STEP_TOL * _mass(total, dim):
            return total, tail(n, a)
        power = _poly_mul(power, x)
        total = _poly_add(total, {e: coeff(n) * c for e, c in power.items()}, 1.0)
    raise SymbolError(f"series needs more than {MAX_SERIES_LENGTH} terms")


def _exp_tail(n: int, a: float) -> float:
    """sum_{m >= n} a^m / m!: its first term over 1 - a / (n + 1)."""
    if a >= n + 1:
        return math.inf
    return math.exp(n * math.log(a) - math.lgamma(n + 1)) / (1 - a / (n + 1)) if a else 0.0


def _exp(arg: tuple, dim: int) -> tuple[dict, float]:
    """exp(c0) sum_n R^n / n! for the argument c0 + R, c0 its constant term;
    an argument bound e adds exp(a) (exp(e) - 1) to the tail, a = mass(R)."""
    (poly, e), zero = arg, (0,) * (2 * dim)
    scale = cmath.exp(poly.get(zero, 0j))
    rest = {k: c for k, c in poly.items() if k != zero}
    total, tail = _series(rest, lambda n: 1 / math.factorial(n), _exp_tail, dim)
    bound = tail + math.exp(_mass(rest, dim)) * math.expm1(e)
    return {k: scale * c for k, c in total.items()}, abs(scale) * bound


def _inverse(arg: tuple, dim: int) -> tuple[dict, float]:
    """1/Q = (1/q0) sum_n (-R/q0)^n for Q = q0 + R with a = mass(R)/|q0| and
    b = a + e/|q0| below 1, e the bound of Q: the geometric tail plus
    1/(1 - b) - 1/(1 - a) for the bound."""
    (poly, e), zero = arg, (0,) * (2 * dim)
    q0 = poly.get(zero, 0j)
    if q0 == 0:
        raise SymbolError("a divisor without a constant term has no series")
    x = {k: -c / q0 for k, c in poly.items() if k != zero}
    a = _mass(x, dim)
    b = a + e / abs(q0)
    if b >= 1:
        raise SymbolError(f"a divisor's ratio {b:.3g} is not below 1")
    total, tail = _series(x, lambda n: 1.0, lambda n, a: a**n / (1 - a), dim)
    bound = tail + (b - a) / ((1 - a) * (1 - b))
    return {k: c / q0 for k, c in total.items()}, bound / abs(q0)


def _expand(node, dim: int) -> tuple[dict, float]:
    """{exponents: coeff} of an AST, and a bound on the mass (see _mass) of
    what its truncated series leave out, 0 for a polynomial.

    ``exponents`` holds the powers of s1..s{dim} followed by the torus mode
    p: since |t_l| = 1, t^a conj(t)^b contributes p = a - b, and conj of a
    subtree conjugates its coefficients and negates its modes.  exp and /
    expand to series (see _exp and _inverse).  A node that has no series,
    a non-finite constant and a step past the limits raise SymbolError.
    """
    zero = (0,) * (2 * dim)
    if not _free_vars(node, set()):
        value = _const_value(node)
        if value is None:
            raise SymbolError("non-finite constant")
        return {zero: value}, 0.0
    tag = node[0]
    if tag == "var":
        axis = int(node[1][1:]) - 1 + (dim if node[1][0] == "t" else 0)
        return {tuple(int(l == axis) for l in range(2 * dim)): 1 + 0j}, 0.0
    if tag == "neg":
        poly, e = _expand(node[1], dim)
        return {k: -c for k, c in poly.items()}, e
    if tag == "call":
        poly, e = _expand(node[2], dim)
        if node[1] == "exp":
            return _exp((poly, e), dim)
        return {k[:dim] + tuple(-v for v in k[dim:]): c.conjugate() for k, c in poly.items()}, e
    if tag == "^":
        # Binary powering keeps s1^N at log2(N) products.
        base, n = _expand(node[1], dim), _power_exponent(node)
        if n is None:
            raise SymbolError("only nonnegative integer constant powers have a series")
        out = ({zero: 1 + 0j}, 0.0)
        while True:
            if n & 1:
                out = _mul(out, base, dim)
            n >>= 1
            if not n:
                return out
            base = _mul(base, base, dim)
    left, right = _expand(node[1], dim), _expand(node[2], dim)
    if tag == "*":
        return _mul(left, right, dim)
    if tag == "/":
        return _mul(left, _inverse(right, dim), dim)
    return _poly_add(left[0], right[0], 1.0 if tag == "+" else -1.0), left[1] + right[1]


def _largest_value(fn: Callable, dim: int, n: int, seed: int) -> float:
    """max |fn(s, t)| over n seeded points of the sphere's positive part x
    the torus; nan where a value is not finite."""
    rng = np.random.default_rng(seed)
    v = np.maximum(np.abs(rng.standard_normal((n, dim))), 1e-12)
    s, t = v / np.linalg.norm(v, axis=1, keepdims=True), np.exp(2j * np.pi * rng.random((n, dim)))
    with np.errstate(all="ignore"):
        top = np.max(np.abs(fn(s, t)))
    return float(top) if np.isfinite(top) else math.nan


def _compile_modes(expr: "SymbolExpression", dim: int, fn: Callable) -> dict | None:
    """Fourier-mode table {p: terms} of an expression, or None when it does
    not compile; ``fn`` is its evaluator from `bind_expression`.

    A polynomial in s, t and conj(t) compiles exactly.  Equal powers are
    merged and zero coefficients dropped; each mode's terms are in
    ascending order of powers, and modes in ascending order.  One of degree
    above MAX_PROFILE_DEGREE, whose expansion passes MAX_PROFILE_TERMS
    terms or which has a non-finite coefficient raises SymbolError.  Any
    other expression compiles to truncated series (see _expand) when it
    certifies: its bound at most SERIES_TOL of its mass, that mass finite
    and at most SERIES_MASS_RATIO times its largest sampled |value|, and
    every limit kept; otherwise it gives None.
    """
    polynomial = _is_polynomial(expr.root)
    try:
        poly, bound = _expand(expr.root, dim)
        degree = max((sum(e[:dim]) for e in poly), default=0)
        if degree > MAX_PROFILE_DEGREE:
            raise SymbolError(
                f"polynomial {expr.text!r} has degree {degree}; at most "
                f"{MAX_PROFILE_DEGREE} is supported"
            )
    except (SymbolError, OverflowError):
        if polynomial:
            raise
        return None
    if not polynomial:
        mass = _mass(poly, dim)
        top = _largest_value(fn, dim, 64, seed=0)
        if not (bound <= SERIES_TOL * mass and mass <= SERIES_MASS_RATIO * top):
            return None
    table: dict[Index, list] = {}
    for e, c in sorted(poly.items()):
        if not np.isfinite(c):
            raise SymbolError(f"polynomial {expr.text!r} has a non-finite coefficient")
        if c != 0:
            table.setdefault(e[dim:], []).append(MonomialProfile(e[:dim], c))
    return {p: tuple(terms) for p, terms in sorted(table.items())}


# ---------------------------------------------------------------------------
# Fourier profiles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MonomialProfile:
    """c_hat(s, p) = coeff * prod_l s_l^{powers_l}; entries become Gamma ratios."""

    powers: Index
    coeff: complex = 1.0

    def __post_init__(self):
        object.__setattr__(self, "powers", tuple(int(v) for v in self.powers))
        if any(v < 0 for v in self.powers):
            raise SymbolError(f"profile powers must be nonnegative: {self.powers}")
        if sum(self.powers) > MAX_PROFILE_DEGREE:
            raise SymbolError(
                f"profile powers {self.powers} have degree {sum(self.powers)}; "
                f"at most {MAX_PROFILE_DEGREE} is supported"
            )

    def __call__(self, s: np.ndarray) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        out = np.full(s.shape[:-1], complex(self.coeff))
        for axis, power in enumerate(self.powers):
            if power:
                out = out * s[..., axis] ** power
        return out

    @property
    def terms(self) -> tuple["MonomialProfile", ...]:
        return (self,)


@dataclass(frozen=True, eq=False)
class Profile:
    """c_hat(s, p) evaluated by ``fn``.  ``terms``, monomials in ascending
    order of powers, make block entries sums of Gamma ratios; without them
    (None) entries are computed by quadrature of ``fn``."""

    fn: Callable
    terms: tuple[MonomialProfile, ...] | None = None

    def __call__(self, s: np.ndarray) -> np.ndarray:
        return np.asarray(self.fn(s), dtype=complex)


# ---------------------------------------------------------------------------
# Symbol classes
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class QuasiRadialSymbol:
    """Bounded symbol depending only on the group radii r_1..r_m.

    The evaluation handle receives an (N, m) array of radii with
    sum(r_j^2) <= 1 and must return an (N,) array; any other shape raises
    SymbolError.  ``terms``, the monomials of a polynomial in r (see
    _compile_modes), make gamma closed form.
    """

    m: int
    fn: Callable
    label: str
    terms: tuple[MonomialProfile, ...] | None = None

    def __call__(self, r: np.ndarray) -> np.ndarray:
        r = np.atleast_2d(np.asarray(r, dtype=float))
        vals = np.asarray(self.fn(r), dtype=complex)
        if vals.shape != (r.shape[0],):
            raise SymbolError(f"quasi-radial symbol {self.label!r} returned shape {vals.shape}, "
                              f"not {(r.shape[0],)}")
        if not np.all(np.isfinite(vals.real) & np.isfinite(vals.imag)):
            raise SymbolError(f"quasi-radial symbol {self.label!r} evaluated non-finite")
        return vals

    @classmethod
    def one(cls, m: int) -> "QuasiRadialSymbol":
        term = MonomialProfile((0,) * m)
        return cls(m=m, fn=term, label="1", terms=(term,))

    @classmethod
    def from_expression(cls, m: int, text: str) -> "QuasiRadialSymbol":
        """``fn`` evaluates the expression; a polynomial compiles to ``terms``."""
        expr, fn = bind_expression(text, m, "r")
        table = _compile_modes(expr, m, fn)
        terms = None if table is None else table.get((0,) * m, ())
        return cls(m=m, fn=fn, label=f"expr:{text}", terms=terms)

    @classmethod
    def power(cls, exponents) -> "QuasiRadialSymbol":
        """a(r) = prod_j r_j^{q_j}."""
        q = tuple(int(v) for v in exponents)
        if any(v < 0 for v in q):
            raise SymbolError(f"radial powers must be nonnegative: {q}")
        term = MonomialProfile(q)
        return cls(m=len(q), fn=term, label=f"rpow{q}", terms=(term,))


@dataclass(frozen=True, eq=False)
class PseudoHomogeneousSymbol:
    """Generalized pseudo-homogeneous symbol for one group.

    fn(s, t) takes broadcast-compatible arrays (..., k) of sphere and torus
    coordinates.  ``modes``, a table {p: profile}, fully describes the
    Fourier support {p : |p| = 0}.
    """

    group: int
    dim: int
    fn: Callable
    label: str
    modes: dict[Index, MonomialProfile | Profile]
    boundary_continuous: bool = False

    def __call__(self, s, t) -> np.ndarray:
        vals = np.asarray(self.fn(np.asarray(s, float), np.asarray(t, complex)))
        return vals.astype(complex)

    def declared_mode_dict(self) -> dict[Index, MonomialProfile | Profile]:
        """``modes``, under the name perfbench/tracing.py reads."""
        return self.modes


def _mode_sum(modes) -> Callable:
    """fn(s, t) = sum of c_hat(s) t^p over the (p, c_hat) pairs of the
    collection modes; fn(s) when every p is zero.  The sum starts from
    zeros, so a -0.0 value comes out +0.0."""

    def fn(s, t=None):
        s = np.asarray(s, dtype=float)
        shape = s.shape[:-1] if t is None else np.broadcast(s, t).shape[:-1]
        out = np.zeros(shape, dtype=complex)
        for p, prof in modes:
            term = np.broadcast_to(np.asarray(prof(s), dtype=complex), out.shape).copy()
            for axis, power in enumerate(p):
                if power:
                    term = term * t[..., axis] ** power
            out = out + term
        return out

    return fn


# Load-time torus invariance tolerance of declared modes.
INVARIANCE_TOL = 1e-10


def mode_symbol(
    group: int,
    dim: int,
    table: dict,
    label: str,
    *,
    boundary_continuous: bool,
    fn: Callable | None = None,
) -> PseudoHomogeneousSymbol:
    """The symbol sum_p c_hat(s, p) t^p of a mode table {p: profile}.

    Every mode must have |p| = 0, with one exception: a mode whose terms
    have a coefficient mass of at most INVARIANCE_TOL is dropped.  ``fn``
    defaults to the table's sum (see _mode_sum).  A symbol declared
    boundary continuous is evaluated on boundary samples, which rules out
    blow-ups, unless every profile has terms: a compiled table is finite on
    the closed sphere.  A failed check raises SymbolError.
    """
    for p, prof in table.items():
        mass = np.inf if prof.terms is None else sum(abs(term.coeff) for term in prof.terms)
        if sum(p) != 0 and mass > INVARIANCE_TOL:
            raise SymbolError(
                f"symbol {label!r} is not invariant under the diagonal torus action; "
                f"mode {p} has coefficient mass {mass:.3e}"
            )
    table = {p: prof for p, prof in table.items() if sum(p) == 0}
    sym = PseudoHomogeneousSymbol(
        group, dim, fn or _mode_sum(table.items()), label, table, boundary_continuous
    )
    # Finiteness on boundary samples stands in for the continuity flag.
    if boundary_continuous and any(f.terms is None for f in table.values()):
        if math.isnan(_largest_value(sym, dim, 32, seed=1)):
            raise SymbolError(f"symbol {label!r} evaluated non-finite near the boundary")
    return sym


def builtin_quasi_homogeneous(group: int, p) -> PseudoHomogeneousSymbol:
    """The quasi-homogeneous symbol c(s,t) = prod s_l^{|p_l|} t^p, |p| = 0."""
    p = tuple(int(v) for v in p)
    table = {p: MonomialProfile(tuple(abs(v) for v in p))}
    return mode_symbol(group, len(p), table, f"qh{p}", boundary_continuous=True)


def constant_symbol(group: int, dim: int, value: complex = 1.0) -> PseudoHomogeneousSymbol:
    table = {(0,) * dim: MonomialProfile((0,) * dim, complex(value))}
    return mode_symbol(group, dim, table, f"const:{complex(value)!r}", boundary_continuous=True)


def profile_monomial(
    group: int, powers, coeff: complex = 1.0, *, boundary_continuous: bool = True
) -> PseudoHomogeneousSymbol:
    """c(s, t) = coeff * prod_l s_l^{powers_l}, a single p = 0 mode."""
    mono = MonomialProfile(powers, complex(coeff))
    dim, label = len(mono.powers), f"profile[mono{mono.powers}*{complex(coeff)!r}]"
    table = {(0,) * dim: mono}
    return mode_symbol(group, dim, table, label, boundary_continuous=boundary_continuous)


def _text_symbol(
    group: int, dim: int, text: str, prefixes: str, boundary_continuous: bool
) -> PseudoHomogeneousSymbol:
    """The symbol of a text over the variables of ``prefixes``.

    A text without a torus variable declares the single mode p = 0, whose
    profile evaluates the text, with terms when it compiles (see
    _compile_modes) and on quadrature otherwise.  A text with one declares
    its compiled Fourier-mode table, and one that does not compile raises
    SymbolError; its ``fn`` evaluates the text.
    """
    expr, fn = bind_expression(text, dim, prefixes)
    label = f"expr:{text}"
    table = _compile_modes(expr, dim, fn)
    zero = (0,) * dim
    if not any(v[0] == "t" for v in expr.variables):
        terms = None if table is None else table.get(zero, ())
        table = {zero: Profile(fn, terms)}
        return mode_symbol(group, dim, table, label, boundary_continuous=boundary_continuous)
    if table is None:
        raise SymbolError(
            f"expression {text!r} has a torus variable but does not compile to a "
            f"certified table of torus modes (a polynomial, exp, or a division whose "
            f"divisor's constant term outweighs the rest)"
        )
    table = {
        p: Profile(_mode_sum([(zero, term) for term in terms]), terms)
        for p, terms in table.items()
    }
    return mode_symbol(group, dim, table, label, boundary_continuous=boundary_continuous, fn=fn)


def profile_symbol(
    group: int, dim: int, text: str, *, boundary_continuous: bool = True
) -> PseudoHomogeneousSymbol:
    """Symbol c(s,t) = b(s) from an expression over s1..sk alone.  A text
    that compiles (see _compile_modes) is assembled as closed-form Gamma
    ratios, anything else by quadrature."""
    return _text_symbol(group, dim, text, "s", boundary_continuous)


def expression_symbol(
    group: int, dim: int, text: str, *, boundary_continuous: bool = True
) -> PseudoHomogeneousSymbol:
    """Generic symbol c(s, t) from an expression over s1..sk, t1..tk; the
    profile of the same text when it has no torus variable.  A text with a
    torus variable compiles to its mode table (see _compile_modes), which
    decides its invariance, and its blocks touch the declared diagonals
    only.  Symbols failing a check are rejected here rather than at
    assembly time."""
    return _text_symbol(group, dim, text, "st", boundary_continuous)
