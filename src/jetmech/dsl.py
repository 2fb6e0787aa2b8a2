"""System-definition language and expression syntax.

Surface syntax for declaring mechanical systems: coordinates, parameters,
forcing signals, the momentum/force components of the dynamical one-form,
optional declared splits, a direct Newtonian oracle, initial conditions
and integration window. Primed identifiers denote jet coordinates (x' is
the velocity, x'' the acceleration), ``t`` is reserved for time, and
signals are referenced through sig(name)/dsig(name).

Files use '#' line comments and newline-or-semicolon statement
separators; the conventional extension is ``.mech``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, NamedTuple, Optional, Union

from .errors import MechError
from .formcalc import Decomposition, VerticalOneForm, accept_user_split
from .symexpr import (
    TAU,
    Expr,
    ForcingSignal,
    PolynomialSignal,
    SinusoidSignal,
    ZERO,
    acc,
    coord,
    format_expr,  # re-exported: the DSL's rendering of canonical expressions
    normalize,
    param,
    signal_symbol,
    vel,
)


class ParseError(MechError):
    """Syntax or resolution error with a 1-based source position."""

    def __init__(self, line: int, col: int, message: str):
        self.line = line
        self.col = col
        self.message = message
        super().__init__(f"line {line}, col {col}: {message}")


class UndeclaredSymbolError(ParseError):
    pass


class DuplicateDeclarationError(ParseError):
    pass


RESERVED = {"t", "sig", "dsig"}


# ---------------------------------------------------------------------------
# lexer
# ---------------------------------------------------------------------------


class Token(NamedTuple):
    type: str  # IDENT NUMBER STRING NEWLINE EOF, or an operator's own text
    value: object
    line: int
    col: int
    primes: int = 0


# One alternative per kind of lexeme, tried in order; the named group that
# matched is the kind. A comment belongs to the newline or end of input that
# follows it, so that token is reported at the '#'. A number's '.' must be
# followed by a digit, except in the range operator of ``1..2``.
_TOKEN = re.compile(
    r"""
      (?P<space>[ \t\r]+)
    | (?P<IDENT>(?P<name>[^\W\d]\w*)(?P<primes>'*))
    | (?P<operator>\.\.|[-+*/^()=,:;{}])
    | (?P<malformed>\d+\.(?![.\d]))
    | (?P<NUMBER>(?P<mantissa>\d+(?:\.\d+)?)(?:[eE](?P<exponent>[+-]?\d+))?)
    | (?P<NEWLINE>(?:\#.*)?\n)
    | (?P<EOF>(?:\#.*)?\Z)
    | (?P<STRING>"(?P<text>[^"\n]*)")
    | (?P<other>.)
    """,
    re.VERBOSE,
)


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, line_start = 1, 0
    for match in _TOKEN.finditer(text):
        kind = match.lastgroup
        col = match.start() - line_start + 1
        if kind == "space":
            continue
        if kind == "IDENT":
            primes = len(match["primes"])
            if primes > 2:
                raise ParseError(line, col, "at most two primes are allowed")
            tokens.append(Token(kind, match["name"], line, col, primes))
        elif kind == "operator":
            tokens.append(Token(match[kind], match[kind], line, col))
        elif kind == "NUMBER":
            value = _parse_number(match["mantissa"], match["exponent"], line, col)
            tokens.append(Token(kind, value, line, col))
        elif kind == "NEWLINE":
            tokens.append(Token(kind, "\n", line, col))
            line, line_start = line + 1, match.end()
        elif kind == "STRING":
            tokens.append(Token(kind, match["text"], line, col))
        elif kind == "EOF":
            tokens.append(Token(kind, None, line, col))
            break
        elif kind == "malformed":
            raise ParseError(line, col, "malformed number")
        elif match[kind] == '"':
            raise ParseError(line, col, "unterminated string")
        else:
            raise ParseError(line, col, f"unexpected character {match[kind]!r}")
    return tokens


def _parse_number(mantissa: str, exponent: Optional[str], line: int, col: int) -> Fraction:
    """Exact rational value of a decimal/scientific literal (1.25 -> 5/4)."""
    exp = 0
    if exponent is not None:
        # compare lengths first: int() of a long digit string is slow
        magnitude = exponent.lstrip("+-").lstrip("0") or "0"
        if len(magnitude) > len(str(MAX_EXPONENT)) or int(magnitude) > MAX_EXPONENT:
            raise ParseError(line, col, f"literal exponent beyond {MAX_EXPONENT} in magnitude")
        exp = int(exponent)
    try:
        value = Fraction(mantissa)
    except ValueError:  # more digits than int() converts
        raise ParseError(line, col, "malformed number") from None
    return value * Fraction(10) ** exp


# ---------------------------------------------------------------------------
# expression AST and parser (precedence climbing)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Num:
    value: Fraction
    line: int
    col: int


@dataclass(frozen=True)
class Name:
    name: str
    primes: int
    line: int
    col: int


@dataclass(frozen=True)
class TimeRef:
    line: int
    col: int


@dataclass(frozen=True)
class SigRef:
    name: str
    order: int
    line: int
    col: int


@dataclass(frozen=True)
class Neg:
    operand: object
    line: int
    col: int


@dataclass(frozen=True)
class BinOp:
    op: str
    lhs: object
    rhs: object
    line: int
    col: int


ExprNode = Union[Num, Name, TimeRef, SigRef, Neg, BinOp]

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}

# Deepest nesting of parentheses, unary minuses and dsig() references in one
# expression. Parsing and resolution recurse once per level, so the bound
# keeps them far from the interpreter's recursion limit; chains of + - * /
# and ^ are not nesting and may be of any length.
MAX_NESTING = 100

# Largest decimal exponent of a numeric literal, in magnitude. Literals are
# exact rationals, so 1e<k> holds a k-digit integer; 400 covers the range
# of a double (about 1e-324 .. 1.8e308).
MAX_EXPONENT = 400

# Most steps in a time grid ``a .. b step h``: (b - a)/h, exactly. A
# trajectory holds steps + 1 samples, every one of them kept in memory.
MAX_TIME_STEPS = 1_000_000


class _ExprParser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str, tok: Token | Num | None = None):
        tok = tok or self.peek()
        raise ParseError(tok.line, tok.col, message)

    def expect(self, kind: str, message: str) -> Token:
        """Consume the next token, which must be of ``kind``."""
        tok = self.peek()
        if tok.type != kind:
            self.fail(message, tok)
        return self.advance()

    def descend(self, tok: Token):
        """Enter one more nesting level, opened by ``tok``."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            self.fail(f"expression nested deeper than {MAX_NESTING} levels", tok)

    def parse(self, min_prec: int = 1) -> ExprNode:
        lhs = self.atom()
        while True:
            tok = self.peek()
            prec = _PREC.get(tok.type, 0)
            if prec < min_prec:
                return lhs
            self.advance()
            if tok.type == "/":
                rhs_tok = self.expect("NUMBER", "division requires a numeric literal")
                if rhs_tok.value == 0:
                    self.fail("division by zero", rhs_tok)
                rhs: ExprNode = Num(rhs_tok.value, rhs_tok.line, rhs_tok.col)
            elif tok.type == "^":
                rhs_tok = self.advance()
                if rhs_tok.type != "NUMBER" or rhs_tok.value.denominator != 1:
                    self.fail("exponent must be a nonnegative integer", rhs_tok)
                rhs = Num(rhs_tok.value, rhs_tok.line, rhs_tok.col)
            else:
                # left-associative + - *; climb one level
                rhs = self.parse(prec + 1)
            lhs = BinOp(tok.type, lhs, rhs, tok.line, tok.col)

    def atom(self) -> ExprNode:
        tok = self.advance()
        if tok.type == "NUMBER":
            return Num(tok.value, tok.line, tok.col)
        if tok.type == "-":
            self.descend(tok)
            operand = self.parse(2)  # binds looser than * and ^
            self.depth -= 1
            return Neg(operand, tok.line, tok.col)
        if tok.type == "(":
            self.descend(tok)
            inner = self.parse(1)
            self.depth -= 1
            self.expect(")", "expected closing parenthesis")
            return inner
        if tok.type == "IDENT":
            if tok.value in ("sig", "dsig"):
                return self.signal_ref(tok)
            if tok.value == "t":
                if tok.primes:
                    self.fail("'t' is reserved for time and cannot be primed", tok)
                return TimeRef(tok.line, tok.col)
            return Name(tok.value, tok.primes, tok.line, tok.col)
        self.fail("expected operand", tok)

    def signal_ref(self, head: Token) -> SigRef:
        """The rest of ``sig(name)`` or ``dsig(...)`` after its ``head``."""
        self.expect("(", "expected '(' after signal reference")
        inner_tok = self.expect("IDENT", "expected signal name")
        if inner_tok.value in ("sig", "dsig"):
            if head.value == "sig":
                self.fail("sig() takes a signal name", inner_tok)
            self.descend(inner_tok)
            inner = self.signal_ref(inner_tok)
            self.depth -= 1
            name, order = inner.name, inner.order
        else:
            name, order = inner_tok.value, 0
        self.expect(")", "expected closing parenthesis in signal reference")
        if head.value == "dsig":
            order += 1
        return SigRef(name, order, head.line, head.col)


def parse_expr(text: str) -> ExprNode:
    """Parse an expression into its raw syntax tree (identifiers unresolved)."""
    tokens = [t for t in tokenize(text) if t.type != "NEWLINE"]
    parser = _ExprParser(tokens)
    tree = parser.parse()
    parser.expect("EOF", "unexpected trailing input")
    return tree


# ---------------------------------------------------------------------------
# resolution: AST -> canonical Expr
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExprContext:
    """Declared names visible to an expression."""

    coords: tuple[str, ...] = ()
    params: frozenset = frozenset()
    signals: Mapping[str, ForcingSignal] = field(default_factory=dict)
    allow_acceleration: bool = True


_CHAIN_KIND = {"+": "add", "-": "add", "*": "mul", "/": "mul"}


def resolve_expr(node: ExprNode, ctx: ExprContext):
    """Lower an AST into a raw tree over Symbols and rationals.

    A left-nested chain of + and - becomes one n-ary ``add`` node, one of *
    and / one n-ary ``mul`` node, and one of ^ a single ``pow``, so the
    recursion here and in ``normalize`` follows the parser's nesting bound,
    not the length of the expression. Operands resolve left to right, so
    the first undeclared name in the text is the one reported.
    """
    if isinstance(node, Num):
        return node.value
    if isinstance(node, TimeRef):
        return TAU
    if isinstance(node, SigRef):
        sig = ctx.signals.get(node.name)
        if sig is None:
            raise UndeclaredSymbolError(node.line, node.col, f"undeclared signal '{node.name}'")
        return signal_symbol(sig, node.order)
    if isinstance(node, Name):
        if node.name in ctx.coords:
            i = ctx.coords.index(node.name)
            if node.primes == 0:
                return coord(i)
            if node.primes == 1:
                return vel(i)
            if not ctx.allow_acceleration:
                raise ParseError(node.line, node.col, "acceleration symbols are not permitted here")
            return acc(i)
        if node.name in ctx.params:
            if node.primes:
                raise ParseError(
                    node.line, node.col, f"parameter '{node.name}' cannot be primed"
                )
            return param(node.name)
        if node.name in ctx.signals:
            raise ParseError(
                node.line,
                node.col,
                f"signal '{node.name}' must be referenced as sig({node.name})",
            )
        raise UndeclaredSymbolError(node.line, node.col, f"undeclared symbol '{node.name}'")
    if isinstance(node, Neg):
        return ("neg", resolve_expr(node.operand, ctx))
    if isinstance(node, BinOp) and node.op == "^":
        exponent = 1
        while isinstance(node, BinOp) and node.op == "^":
            exponent *= int(node.rhs.value)  # (b^p)^q = b^(p*q)
            node = node.lhs
        return ("pow", resolve_expr(node, ctx), exponent)
    if isinstance(node, BinOp):
        kind = _CHAIN_KIND[node.op]
        spine = []
        while isinstance(node, BinOp) and _CHAIN_KIND.get(node.op) == kind:
            spine.append(node)
            node = node.lhs
        operands = [resolve_expr(node, ctx)]
        for link in reversed(spine):
            if link.op == "/":
                operands.append(1 / link.rhs.value)
            elif link.op == "-":
                operands.append(("neg", resolve_expr(link.rhs, ctx)))
            else:
                operands.append(resolve_expr(link.rhs, ctx))
        return (kind, *operands)
    raise TypeError(f"unknown AST node {node!r}")


def text_to_expr(text: str, ctx: ExprContext) -> Expr:
    """parse, resolve and canonicalize in one step."""
    return normalize(resolve_expr(parse_expr(text), ctx))


# ---------------------------------------------------------------------------
# system files
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SystemSpec:
    """A fully-declared mechanical system ready for derivation/simulation."""

    name: str
    coords: tuple[str, ...]
    params: dict  # name -> Fraction
    signals: dict  # name -> ForcingSignal
    phi: VerticalOneForm
    # (L, phi_a) when the file declares either half; the other half is zero
    declared_split: Optional[tuple[Expr, VerticalOneForm]] = None
    oracle_forces: Optional[tuple[Expr, ...]] = None
    init: Optional[tuple[tuple[float, ...], tuple[float, ...]]] = None
    time: Optional[tuple[float, float, float]] = None
    integrator: str = "rk4"

    @property
    def n(self) -> int:
        return len(self.coords)

    def param_values(self) -> dict:
        """Parameters as floats; raises MechError for one beyond the float range."""
        values = {}
        for name, value in self.params.items():
            try:
                values[name] = float(value)
            except OverflowError:
                raise MechError(f"parameter '{name}' is beyond the float range") from None
        return values

    def declared_decomposition(self) -> Decomposition:
        """Validate and return the user-declared split (may raise
        ReconstructionError)."""
        if self.declared_split is None:
            raise MechError(f"system '{self.name}' declares no split")
        return accept_user_split(*self.declared_split, self.phi)


class _SystemParser(_ExprParser):
    """Statement parser; expressions are parsed in place on the same tokens."""

    def __init__(self, tokens: list[Token]):
        super().__init__(tokens)
        self.coords: list[str] = []
        self.params: dict = {}
        self.signals: dict = {}
        # (keyword, coordinate, primes) -> (token, node), in source order: one
        # entry per slot of phi, phi_a, the oracle and init. The lagrangian is
        # ("lagrangian", "", 0); an init value is the Num of its literal.
        self.clauses: dict = {}
        self.time_clause = None
        self.integrator = "rk4"
        self.declared: set = set()

    # token plumbing -------------------------------------------------------

    def skip_separators(self):
        while self.peek().type in ("NEWLINE", ";"):
            self.advance()

    def expect_end_of_statement(self):
        if self.peek().type not in ("NEWLINE", ";", "}", "EOF"):
            self.fail("expected end of statement")

    def number_literal(self) -> Fraction:
        neg = self.peek().type == "-"
        if neg:
            self.advance()
        value = self.expect("NUMBER", "expected a number").value
        if self.peek().type == "/":
            self.advance()
            den = self.expect("NUMBER", "expected a number after '/'")
            if den.value == 0:
                self.fail("division by zero", den)
            value = value / den.value
        return -value if neg else value

    def number_node(self) -> Num:
        """A number literal at the position of its first token."""
        tok = self.peek()
        return Num(self.number_literal(), tok.line, tok.col)

    def to_float(self, literal: Num) -> float:
        try:
            return float(literal.value)
        except OverflowError:
            self.fail("number beyond the float range", literal)

    # declarations ---------------------------------------------------------

    def declare(self, tok: Token):
        name = tok.value
        if name in RESERVED:
            self.fail(f"'{name}' is reserved", tok)
        if name in self.declared:
            raise DuplicateDeclarationError(
                tok.line, tok.col, f"duplicate declaration of '{name}'"
            )
        self.declared.add(name)

    # statement dispatch ----------------------------------------------------

    def parse_system(self) -> SystemSpec:
        self.skip_separators()
        head = self.expect("IDENT", "expected 'system'")
        if head.value != "system":
            self.fail("expected 'system'", head)
        name_tok = self.expect("STRING", "expected a quoted system name")
        self.skip_separators()
        self.expect("{", "expected '{'")
        while True:
            self.skip_separators()
            tok = self.peek()
            if tok.type == "}":
                self.advance()
                break
            if tok.type == "EOF":
                self.fail("unterminated system block (missing '}')", tok)
            self.statement()
        self.skip_separators()
        self.expect("EOF", "unexpected input after system block")
        return self.build(name_tok.value)

    def statement(self):
        tok = self.expect("IDENT", "expected statement keyword")
        kw = tok.value
        handler = {
            "parameter": self.stmt_parameter,
            "coordinate": self.stmt_coordinate,
            "signal": self.stmt_signal,
            "momentum": self.stmt_clause,
            "force": self.stmt_clause,
            "lagrangian": self.stmt_lagrangian,
            "antiexact": self.stmt_clause,
            "oracle": self.stmt_clause,
            "init": self.stmt_init,
            "time": self.stmt_time,
            "integrator": self.stmt_integrator,
        }.get(kw)
        if handler is None:
            self.fail(f"unknown statement '{kw}'", tok)
        handler(tok)
        self.expect_end_of_statement()

    def stmt_parameter(self, _):
        name = self.expect("IDENT", "expected parameter name")
        if name.primes:
            self.fail("parameter names cannot carry primes", name)
        self.declare(name)
        self.expect("=", "expected '='")
        self.params[name.value] = self.number_literal()

    def stmt_coordinate(self, _):
        name = self.expect("IDENT", "expected coordinate name")
        if name.primes:
            self.fail("declare the coordinate without primes", name)
        self.declare(name)
        self.coords.append(name.value)

    def stmt_signal(self, _):
        name = self.expect("IDENT", "expected signal name")
        self.declare(name)
        self.expect("=", "expected '='")
        kind = self.expect("IDENT", "expected signal kind")
        self.expect("(", "expected '('")
        args = [self.number_literal()]
        while self.peek().type == ",":
            self.advance()
            args.append(self.number_literal())
        self.expect(")", "expected ')'")
        if kind.value == "polynomial":
            self.signals[name.value] = PolynomialSignal(name.value, tuple(args))
        elif kind.value == "sinusoid":
            if len(args) != 3:
                self.fail("sinusoid takes (amplitude, omega, phase)", kind)
            self.signals[name.value] = SinusoidSignal(name.value, *args)
        else:
            self.fail("signal kind must be polynomial or sinusoid", kind)

    def stmt_clause(self, keyword: Token):
        """``momentum|force|oracle|antiexact <coordinate>: <expression>``;
        ``antiexact x':`` is the dx' slot of phi_a."""
        tok = self.expect("IDENT", "expected coordinate name")
        if tok.primes > (keyword.value == "antiexact"):
            self.fail("unexpected primes on coordinate reference", tok)
        key = (keyword.value, tok.value, tok.primes)
        if key in self.clauses:
            raise DuplicateDeclarationError(
                tok.line, tok.col, f"duplicate {keyword.value} clause for '{tok.value}'"
            )
        self.expect(":", "expected ':'")
        self.clauses[key] = (tok, self.parse())

    def stmt_lagrangian(self, tok):
        key = ("lagrangian", "", 0)
        if key in self.clauses:
            raise DuplicateDeclarationError(tok.line, tok.col, "duplicate lagrangian clause")
        self.expect(":", "expected ':'")
        self.clauses[key] = (tok, self.parse())

    def stmt_init(self, _):
        while True:
            tok = self.expect("IDENT", "expected coordinate name")
            if tok.primes > 1:
                self.fail("init assigns x or x' only", tok)
            self.expect("=", "expected '='")
            literal = self.number_node()
            key = ("init", tok.value, tok.primes)
            if key in self.clauses:
                raise DuplicateDeclarationError(
                    tok.line, tok.col, f"duplicate init for '{tok.value}'"
                )
            self.clauses[key] = (tok, literal)
            if self.peek().type != ",":
                break
            self.advance()

    def stmt_time(self, _):
        a = self.number_node()
        self.expect("..", "expected '..'")
        b = self.number_node()
        step_tok = self.expect("IDENT", "expected 'step'")
        if step_tok.value != "step":
            self.fail("expected 'step'", step_tok)
        h = self.number_node()
        if not b.value > a.value:
            self.fail("time interval must satisfy b > a", step_tok)
        if not h.value > 0:
            self.fail("step must be positive", step_tok)
        if (b.value - a.value) / h.value > MAX_TIME_STEPS:
            self.fail(f"time grid of more than {MAX_TIME_STEPS} steps", h)
        self.time_clause = tuple(self.to_float(literal) for literal in (a, b, h))

    def stmt_integrator(self, _):
        tok = self.expect("IDENT", "expected integrator name")
        if tok.value not in ("rk4", "rkf45"):
            self.fail("integrator must be rk4 or rkf45", tok)
        self.integrator = tok.value

    # assembly ---------------------------------------------------------------

    def build(self, sys_name: str) -> SystemSpec:
        if not self.coords:
            self.fail("system declares no coordinates")
        ctx = ExprContext(
            coords=tuple(self.coords),
            params=frozenset(self.params),
            signals=dict(self.signals),
            allow_acceleration=False,
        )
        # source order, so the first error in the file is the one reported
        values = {}
        for key, (tok, node) in self.clauses.items():
            keyword, name, _ = key
            if keyword != "lagrangian" and name not in self.coords:
                raise UndeclaredSymbolError(tok.line, tok.col, f"undeclared coordinate '{name}'")
            if keyword == "init":
                values[key] = self.to_float(node)
            else:
                values[key] = normalize(resolve_expr(node, ctx))
        keywords = {keyword for keyword, _, _ in values}
        n = len(self.coords)

        def slot(keyword, primes=0, default=(ZERO,) * n):
            """One value per coordinate, ``default[i]`` where none is given."""
            return tuple(
                values.get((keyword, name, primes), fallback)
                for name, fallback in zip(self.coords, default)
            )

        momentum = (ZERO,) * n
        if "m" in self.params:
            m = Expr.var(param("m"))
            momentum = tuple(m * Expr.var(vel(i)) for i in range(n))
        declared_split = None
        if keywords & {"lagrangian", "antiexact"}:
            declared_split = (
                values.get(("lagrangian", "", 0), ZERO),
                VerticalOneForm(slot("antiexact"), slot("antiexact", 1)),
            )
        zeros = (0.0,) * n
        return SystemSpec(
            name=sys_name,
            coords=tuple(self.coords),
            params=dict(self.params),
            signals=dict(self.signals),
            phi=VerticalOneForm(slot("force"), slot("momentum", 0, momentum)),
            declared_split=declared_split,
            oracle_forces=slot("oracle") if "oracle" in keywords else None,
            init=(slot("init", 0, zeros), slot("init", 1, zeros)) if "init" in keywords else None,
            time=self.time_clause,
            integrator=self.integrator,
        )


def parse_system(text: str) -> SystemSpec:
    """Parse a system-definition file into a SystemSpec.

    Declared splits are stored, not validated here; validation happens when
    a decomposition is requested (so verification commands can report the
    mismatch instead of refusing to load the file).
    """
    return _SystemParser(tokenize(text)).parse_system()


# ---------------------------------------------------------------------------
# library presets
# ---------------------------------------------------------------------------

PRESETS: dict[str, str] = {
    "harmonic": """\
system "harmonic" {
  parameter m = 1
  parameter k = 1
  coordinate x
  force x: -k*x
  momentum x: m*x'
  lagrangian: m*x'^2/2 - k*x^2/2
  oracle x: -k*x
  init x = 1, x' = 0
  time 0 .. 10 step 1e-3
}
""",
    "damped_ho": """\
system "damped_ho" {
  parameter m = 1
  parameter k = 1
  parameter b = 0.1
  coordinate x
  signal f = sinusoid(0.3, 1.2, 0)
  force x: -k*x - b*x' + sig(f)
  momentum x: m*x'
  lagrangian: m*x'^2/2 - k*x^2/2
  antiexact x: -b*x' + sig(f)
  oracle x: -k*x - b*x' + sig(f)
  init x = 1, x' = 0
  time 0 .. 20 step 1e-3
}
""",
    "duffing": """\
system "duffing" {
  parameter m = 1
  parameter a = 1
  parameter b = 0.3
  coordinate x
  force x: -a*x^3 - b*x'
  momentum x: m*x'
  oracle x: -a*x^3 - b*x'
  init x = 1, x' = 0
  time 0 .. 20 step 1e-3
}
""",
    "vanderpol": """\
system "vanderpol" {
  parameter m = 1
  parameter k = 1
  parameter b0 = 1
  coordinate x
  force x: -k*x - b0*(x^2 - 1)*x'
  momentum x: m*x'
  oracle x: -k*x - b0*(x^2 - 1)*x'
  init x = 1, x' = 0
  time 0 .. 20 step 1e-3
}
""",
}


def preset(name: str) -> SystemSpec:
    if name not in PRESETS:
        raise MechError(f"unknown preset '{name}' (have: {', '.join(sorted(PRESETS))})")
    return parse_system(PRESETS[name])
