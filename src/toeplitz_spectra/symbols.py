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
grammar (constants, + - * / ^, exp, conj, variables r1.., s1.., t1..);
no control flow, no user functions.  One binder (bind_expression) parses
a text, checks its variables and returns its evaluator; one compiler
(_compile_modes) turns an expression that is a polynomial in s, t and
conj(t) into its table of Fourier modes, each a sum of monomials in s.
An expression without a torus variable declares the single mode p = 0,
and quasi-radial expressions in r1..rm compile to their monomials.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import SymbolError, SymbolParseError

Index = tuple[int, ...]


# ---------------------------------------------------------------------------
# Expression grammar
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>\*\*|[()+\-*/^,]))"
)

_FUNCTIONS = {"exp": np.exp, "conj": np.conj}
_CONSTANTS = {"pi": np.pi, "i": 1j}
_VAR_RE = re.compile(r"^[rst][1-9][0-9]*$")


class _Tokenizer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.tokens: list[tuple[str, str, int]] = []
        while self.pos < len(text):
            m = _TOKEN_RE.match(text, self.pos)
            if m is None or m.end() == self.pos:
                stripped = text[self.pos :].lstrip()
                if not stripped:
                    break
                at = len(text) - len(stripped)
                raise SymbolParseError(f"unexpected character {text[at]!r}", at)
            kind = m.lastgroup
            self.tokens.append((kind, m.group(kind), m.start(kind)))
            self.pos = m.end()
        self.tokens.append(("end", "", len(text)))
        self.idx = 0

    def peek(self):
        return self.tokens[self.idx]

    def next(self):
        tok = self.tokens[self.idx]
        self.idx += 1
        return tok


# AST nodes are plain tuples: ("num", v) | ("var", name) | ("neg", node)
# | ("call", fname, node) | (op, left, right) with op in "+-*/^".


class _Parser:
    """Recursive descent over: expr -> term (+/- term)*, term -> factor
    (*// factor)*, factor -> unary (^ factor)?, unary -> [+-] unary | atom."""

    def __init__(self, text: str):
        self.toks = _Tokenizer(text)

    def parse(self):
        node = self.expr()
        kind, val, pos = self.toks.peek()
        if kind != "end":
            raise SymbolParseError(f"unexpected trailing input {val!r}", pos)
        return node

    def expr(self):
        node = self.term()
        while True:
            kind, val, _ = self.toks.peek()
            if kind == "op" and val in "+-":
                self.toks.next()
                node = (val, node, self.term())
            else:
                return node

    def term(self):
        node = self.factor()
        while True:
            kind, val, _ = self.toks.peek()
            if kind == "op" and val in "*/":
                self.toks.next()
                node = (val, node, self.factor())
            else:
                return node

    def factor(self):
        node = self.unary()
        kind, val, _ = self.toks.peek()
        if kind == "op" and val in ("^", "**"):
            self.toks.next()
            node = ("^", node, self.factor())
        return node

    def unary(self):
        kind, val, pos = self.toks.peek()
        if kind == "op" and val in "+-":
            self.toks.next()
            inner = self.unary()
            return inner if val == "+" else ("neg", inner)
        return self.atom()

    def atom(self):
        kind, val, pos = self.toks.next()
        if kind == "num":
            return ("num", float(val))
        if kind == "name":
            nxt_kind, nxt_val, _ = self.toks.peek()
            if nxt_kind == "op" and nxt_val == "(":
                if val not in _FUNCTIONS:
                    raise SymbolParseError(f"unknown function {val!r}", pos)
                self.toks.next()
                arg = self.expr()
                self._expect(")")
                return ("call", val, arg)
            if val in _CONSTANTS:
                return ("num", complex(_CONSTANTS[val]))
            if not _VAR_RE.match(val):
                raise SymbolParseError(f"unknown identifier {val!r}", pos)
            return ("var", val)
        if kind == "op" and val == "(":
            node = self.expr()
            self._expect(")")
            return node
        raise SymbolParseError(f"expected a value, got {val!r}", pos)

    def _expect(self, op: str):
        kind, val, pos = self.toks.next()
        if kind != "op" or val != op:
            raise SymbolParseError(f"expected {op!r}, got {val!r}", pos)


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
    """Parse a profile expression; raises SymbolParseError with a byte offset."""
    if not text or not text.strip():
        raise SymbolParseError("empty expression", 0)
    root = _Parser(text).parse()
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


def _is_compiled_conj(node) -> bool:
    """conj of a subtree holding a torus variable; conj of anything else
    compiles only when the subtree is constant."""
    return node[0] == "call" and node[1] == "conj" and any(
        v[0] == "t" for v in _free_vars(node[2], set())
    )


def _poly_degree(node) -> int | None:
    """Total degree of an AST in s1..sk, t1..tk and conj(t1)..conj(tk), or
    None when it is not a polynomial: a variable under / or exp, conj over
    variables but no torus variable, a ^ whose exponent is not a
    nonnegative integer constant, or a constant that is not finite."""
    if not _free_vars(node, set()):
        return 0 if _const_value(node) is not None else None
    tag = node[0]
    if tag == "var":
        return 1
    if tag == "neg" or _is_compiled_conj(node):
        return _poly_degree(node[-1])
    if tag in "+-*":
        degrees = (_poly_degree(node[1]), _poly_degree(node[2]))
        if None in degrees:
            return None
        return sum(degrees) if tag == "*" else max(degrees)
    if tag == "^":
        base, n = _poly_degree(node[1]), _power_exponent(node)
        return None if base is None or n is None else base * n
    return None


def _poly_terms(node, dim: int) -> dict:
    """Expand an AST that _poly_degree accepts into {exponents: coeff}.

    ``exponents`` holds the powers of s1..s{dim} followed by the torus mode
    p: since |t_l| = 1, t^a conj(t)^b contributes p = a - b, and conj of a
    subtree conjugates its coefficients and negates its modes.
    """
    zero = (0,) * (2 * dim)
    if not _free_vars(node, set()):
        return {zero: _const_value(node)}
    tag = node[0]
    if tag == "var":
        axis = int(node[1][1:]) - 1 + (dim if node[1][0] == "t" else 0)
        return {tuple(int(l == axis) for l in range(2 * dim)): 1 + 0j}
    if tag == "neg":
        return {e: -c for e, c in _poly_terms(node[1], dim).items()}
    if tag == "call":
        return {
            e[:dim] + tuple(-v for v in e[dim:]): c.conjugate()
            for e, c in _poly_terms(node[2], dim).items()
        }
    if tag != "^":
        left, right = _poly_terms(node[1], dim), _poly_terms(node[2], dim)
        if tag == "*":
            return _poly_mul(left, right)
        return _poly_add(left, right, 1.0 if tag == "+" else -1.0)
    # Binary powering keeps s1^N at log2(N) products.
    base, n = _poly_terms(node[1], dim), _power_exponent(node)
    out = {zero: 1 + 0j}
    while True:
        if n & 1:
            out = _poly_mul(out, base)
        n >>= 1
        if not n:
            return out
        base = _poly_mul(base, base)


def _compile_modes(expr: "SymbolExpression", dim: int) -> dict | None:
    """Fourier-mode table {p: terms} of an expression that is a polynomial
    in s, t and conj(t), or None for any other expression.

    Equal powers are merged and zero coefficients dropped; each mode's
    terms are in ascending order of powers, and modes in ascending order.
    A polynomial of degree above MAX_PROFILE_DEGREE, whose expansion passes
    MAX_PROFILE_TERMS terms or which has a non-finite coefficient raises
    SymbolError.
    """
    degree = _poly_degree(expr.root)
    if degree is None:
        return None
    if degree > MAX_PROFILE_DEGREE:
        raise SymbolError(
            f"polynomial {expr.text!r} has degree {degree}; at most "
            f"{MAX_PROFILE_DEGREE} is supported"
        )
    table: dict[Index, list] = {}
    for e, c in sorted(_poly_terms(expr.root, dim).items()):
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
    label: str
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
        table = _compile_modes(expr, m)
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
    coordinates.  When ``modes``, a table {p: profile}, is present it fully
    describes the Fourier support {p : |p| = 0}; otherwise coefficients are
    probed numerically on demand.
    """

    group: int
    dim: int
    fn: Callable
    label: str
    modes: dict[Index, MonomialProfile | Profile] | None = None
    boundary_continuous: bool = False

    def __call__(self, s, t) -> np.ndarray:
        vals = np.asarray(self.fn(np.asarray(s, float), np.asarray(t, complex)))
        return vals.astype(complex)

    def declared_mode_dict(self) -> dict[Index, MonomialProfile | Profile] | None:
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


# Load-time torus invariance tolerance of declared modes and probed symbols.
INVARIANCE_TOL = 1e-10


def mode_symbol(
    group: int,
    dim: int,
    table: dict | None,
    label: str,
    *,
    boundary_continuous: bool,
    fn: Callable | None = None,
) -> PseudoHomogeneousSymbol:
    """The symbol sum_p c_hat(s, p) t^p of a mode table {p: profile}.

    Every mode must have |p| = 0, with one exception: a mode whose terms
    have a coefficient mass of at most INVARIANCE_TOL is dropped.  ``fn``
    defaults to the table's sum (see _mode_sum).  A table of None declares
    no support: ``fn`` is then required, its invariance is probed on 64
    random samples to INVARIANCE_TOL, and assembly probes its modes on the
    torus.  A symbol declared boundary continuous is evaluated on boundary
    samples, which rules out blow-ups, unless every profile has terms: a
    polynomial is finite on the closed sphere.  A failed check raises
    SymbolError.
    """
    if table is not None:
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
    if table is None:
        report = check_invariance(sym, samples=64, tol=INVARIANCE_TOL)
        if not report.ok:
            if not np.isfinite(report.worst):
                raise SymbolError(f"symbol {label!r} evaluated non-finite during validation")
            raise SymbolError(
                f"symbol {label!r} is not invariant under the diagonal torus action; "
                f"worst violation {report.worst:.3e}"
            )
    if boundary_continuous and (table is None or any(f.terms is None for f in table.values())):
        boundary_sanity_sample(sym)
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
    profile evaluates the text.  A text with one declares its Fourier-mode
    table when it is a polynomial (see _compile_modes), and none otherwise;
    its ``fn`` evaluates the text.
    """
    expr, fn = bind_expression(text, dim, prefixes)
    label = f"expr:{text}"
    table = _compile_modes(expr, dim)
    zero = (0,) * dim
    if not any(v[0] == "t" for v in expr.variables):
        terms = None if table is None else table.get(zero, ())
        table = {zero: Profile(fn, label, terms)}
        return mode_symbol(group, dim, table, label, boundary_continuous=boundary_continuous)
    if table is not None:
        table = {
            p: Profile(_mode_sum([(zero, term) for term in terms]), f"{label}@{p}", terms)
            for p, terms in table.items()
        }
    return mode_symbol(group, dim, table, label, boundary_continuous=boundary_continuous, fn=fn)


def profile_symbol(
    group: int, dim: int, text: str, *, boundary_continuous: bool = True
) -> PseudoHomogeneousSymbol:
    """Symbol c(s,t) = b(s) from an expression over s1..sk alone.  A
    polynomial (constants, + - *, ^ with a nonnegative integer constant
    exponent; / exp conj only on constants) is assembled as closed-form
    Gamma ratios, anything else by quadrature."""
    return _text_symbol(group, dim, text, "s", boundary_continuous)


def expression_symbol(
    group: int, dim: int, text: str, *, boundary_continuous: bool = False
) -> PseudoHomogeneousSymbol:
    """Generic symbol c(s, t) from an expression over s1..sk, t1..tk; the
    profile of the same text when it has no torus variable.  A polynomial
    in s, t and conj(t) has its invariance decided exactly from its mode
    table, and its blocks touch the declared diagonals only; any other
    expression is probed (see mode_symbol).  Symbols failing a check are
    rejected here rather than at assembly time."""
    return _text_symbol(group, dim, text, "st", boundary_continuous)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InvarianceReport:
    ok: bool
    worst: float


def _sample_sphere_plus(rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    v = np.abs(rng.standard_normal((n, k)))
    v = np.maximum(v, 1e-12)
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def check_invariance(
    c: PseudoHomogeneousSymbol, samples: int = 64, tol: float = 1e-12
) -> InvarianceReport:
    """Probe |c(s, g.t) - c(s, t)| over random (s, t, g); report the worst case."""
    if samples < 1:
        raise SymbolError("need at least one sample")
    rng = np.random.default_rng(0)
    k = c.dim
    s = _sample_sphere_plus(rng, samples, k)
    t = np.exp(2j * np.pi * rng.random((samples, k)))
    g = np.exp(2j * np.pi * rng.random((samples, 1)))
    with np.errstate(all="ignore"):
        base = c(s, t)
        moved = c(s, g * t)
        deviation = np.abs(moved - base)
    if not np.all(np.isfinite(deviation)):
        return InvarianceReport(ok=False, worst=float("inf"))
    worst = float(np.max(deviation))
    return InvarianceReport(ok=worst <= tol, worst=worst)


def boundary_sanity_sample(c: PseudoHomogeneousSymbol) -> float:
    """Max |c| over 32 sphere samples; finiteness stands in for the continuity flag."""
    rng = np.random.default_rng(1)
    s = _sample_sphere_plus(rng, 32, c.dim)
    t = np.exp(2j * np.pi * rng.random((32, c.dim)))
    with np.errstate(all="ignore"):
        vals = c(s, t)
    if not np.all(np.isfinite(vals.real) & np.isfinite(vals.imag)):
        raise SymbolError(f"symbol {c.label!r} evaluated non-finite near the boundary")
    return float(np.max(np.abs(vals)))
