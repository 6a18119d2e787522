"""Expression language for chaos algebra: lexer, parser, AST, printer.

    program    := stmt*                     statements split by newline or ';'
    stmt       := ident "=" expr | command
    expr       := ["-"] term (("+"|"-") term)*
    term       := factor (("*"|"<>") factor)*
    factor     := atom (("^"|"<>^") int)*
    atom       := number | ident | I<n> "{" entries "}" | "eps" "(" args ")"
                  | "(" expr ")"
    entries    := (multiindex ":" signed_number) ("," ...)*  | empty
    multiindex := "(" int ("," int)* ")"    1-based basis indices, repeats OK

    command    := "eval" expr "at" signed_number+
                | "expect" expr
                | "stransform" expr [","] signed_number+
                | "translate" expr [","] signed_number+
                | "renorm" expr             polynomial in x1..xd
                | "humeyer" T<n> "{" entries "}"
                | "check" [ident | "all"]

Precedence: ^ and <>^ bind tightest, then * and <>, then + and -; all
binary operators associate left.  '#' starts a comment.  A leading "-"
makes a negation; inside argument lists, write a comma before a negative
number so it is not read as subtraction.

Integer literals (exponents, orders, basis indices) have at most the
digits int() converts, 4300 by default.  An ordinary ^ runs one clipped
product per unit of its exponent, so its exponent is at most
runtime.MAX_POWER = 10^5; <>^ squares repeatedly and takes any exponent.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .errors import ParseError

RESERVED = frozenset({"eval", "at", "expect", "stransform", "translate",
                      "renorm", "humeyer", "check", "eps", "all"})
COMMAND_WORDS = frozenset({"eval", "expect", "stransform", "translate",
                           "renorm", "humeyer", "check"})

_TOKEN_RE = re.compile(r"""
    (?P<ws>[\ \t\r]+)
  | (?P<comment>\#[^\n]*)
  | (?P<newline>\n|;)
  | (?P<number>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)
  | (?P<ilit>I\d+(?![A-Za-z0-9_]))
  | (?P<tlit>T\d+(?![A-Za-z0-9_]))
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op><>\^|<>|[+\-*^=(){}:,])
""", re.VERBOSE)


@dataclass(frozen=True)
class Token:
    kind: str
    value: str
    line: int
    col: int


def tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    line, col, pos = 1, 1, 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            raise ParseError(f"unexpected character {source[pos]!r}", line, col)
        kind = m.lastgroup
        text = m.group()
        if kind == "newline":
            tokens.append(Token("newline", text, line, col))
            if text == "\n":
                line += 1
                col = 1
            else:
                col += 1
        elif kind in ("ws", "comment"):
            col += len(text)
        else:
            tokens.append(Token(kind, text, line, col))
            col += len(text)
        pos = m.end()
    tokens.append(Token("eof", "", line, col))
    return tokens


# -- AST ----------------------------------------------------------------------


@dataclass(frozen=True)
class Node:
    line: int = field(compare=False, default=0, kw_only=True)
    col: int = field(compare=False, default=0, kw_only=True)


@dataclass(frozen=True)
class Num(Node):
    value: float = 0.0


@dataclass(frozen=True)
class Var(Node):
    name: str = ""


@dataclass(frozen=True)
class ChaosLit(Node):
    """I n{(i,..): v, ..} with 1-based indices kept as written."""
    order: int = 0
    entries: tuple[tuple[tuple[int, ...], float], ...] = ()


@dataclass(frozen=True)
class Eps(Node):
    values: tuple[float, ...] = ()


@dataclass(frozen=True)
class Neg(Node):
    operand: Node = None


@dataclass(frozen=True)
class BinOp(Node):
    op: str = ""
    left: Node = None
    right: Node = None


@dataclass(frozen=True)
class Pow(Node):
    base: Node = None
    exponent: int = 0
    wick: bool = False


@dataclass(frozen=True)
class Stmt(Node):
    pass


@dataclass(frozen=True)
class Assign(Stmt):
    name: str = ""
    expr: Node = None


@dataclass(frozen=True)
class EvalCmd(Stmt):
    expr: Node = None
    point: tuple[float, ...] = ()


@dataclass(frozen=True)
class ExpectCmd(Stmt):
    expr: Node = None


@dataclass(frozen=True)
class STransformCmd(Stmt):
    expr: Node = None
    xi: tuple[float, ...] = ()


@dataclass(frozen=True)
class TranslateCmd(Stmt):
    expr: Node = None
    shift: tuple[float, ...] = ()


@dataclass(frozen=True)
class RenormCmd(Stmt):
    expr: Node = None


@dataclass(frozen=True)
class HuMeyerCmd(Stmt):
    order: int = 0
    entries: tuple[tuple[tuple[int, ...], float], ...] = ()


@dataclass(frozen=True)
class CheckCmd(Stmt):
    names: Optional[tuple[str, ...]] = None


# -- parser -------------------------------------------------------------------


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def fail(self, message: str, tok: Token | None = None):
        tok = tok or self.peek()
        raise ParseError(message, tok.line, tok.col)

    def expect_op(self, op: str) -> Token:
        tok = self.peek()
        if tok.kind != "op" or tok.value != op:
            self.fail(f"expected {op!r}, got {tok.value or 'end of input'!r}")
        return self.advance()

    def at_op(self, *ops: str) -> bool:
        tok = self.peek()
        return tok.kind == "op" and tok.value in ops

    def integer(self, what: str, skip: int = 0) -> int:
        """Consume the next token and read it, past its first skip
        characters (the I or T of a literal), as an integer; ParseError at
        the token if it is none or has more digits than int() converts."""
        tok = self.peek()
        digits = tok.value[skip:]
        if not digits.isdigit():
            self.fail(f"expected an integer {what}")
        try:
            value = int(digits)
        except ValueError:  # past sys.get_int_max_str_digits()
            self.fail(f"{what} of {len(digits)} digits is too long")
        self.advance()
        return value

    # statements

    def parse_program(self) -> list[Stmt]:
        stmts: list[Stmt] = []
        while True:
            while self.peek().kind == "newline":
                self.advance()
            if self.peek().kind == "eof":
                return stmts
            stmts.append(self.parse_stmt())
            tok = self.peek()
            if tok.kind not in ("newline", "eof"):
                self.fail(f"unexpected {tok.value!r} after statement")

    def parse_stmt(self) -> Stmt:
        tok = self.peek()
        if tok.kind == "ident" and tok.value in COMMAND_WORDS:
            return self.parse_command()
        if tok.kind == "ident":
            nxt = self.tokens[self.pos + 1]
            if nxt.kind == "op" and nxt.value == "=":
                if tok.value in RESERVED:
                    self.fail(f"{tok.value!r} is a reserved word", tok)
                self.advance()
                self.advance()
                expr = self.parse_expr()
                return Assign(name=tok.value, expr=expr, line=tok.line, col=tok.col)
        expr = self.parse_expr()
        self.fail("expected assignment or command", tok)

    def parse_command(self) -> Stmt:
        tok = self.advance()
        word = tok.value
        if word == "eval":
            expr = self.parse_expr()
            at = self.peek()
            if at.kind != "ident" or at.value != "at":
                self.fail("expected 'at' after eval expression", at)
            self.advance()
            point = self.parse_numbers(minimum=1)
            return EvalCmd(expr=expr, point=point, line=tok.line, col=tok.col)
        if word == "expect":
            return ExpectCmd(expr=self.parse_expr(), line=tok.line, col=tok.col)
        if word in ("stransform", "translate"):
            expr = self.parse_expr()
            if self.at_op(","):
                self.advance()
            nums = self.parse_numbers(minimum=1)
            if word == "stransform":
                return STransformCmd(expr=expr, xi=nums, line=tok.line, col=tok.col)
            return TranslateCmd(expr=expr, shift=nums, line=tok.line, col=tok.col)
        if word == "renorm":
            return RenormCmd(expr=self.parse_expr(), line=tok.line, col=tok.col)
        if word == "humeyer":
            if self.peek().kind != "tlit":
                self.fail("expected a tensor literal like T2{(1,2): 1.0}")
            order = self.integer("tensor order", skip=1)
            entries = self.parse_entries()
            return HuMeyerCmd(order=order, entries=entries, line=tok.line, col=tok.col)
        if word == "check":
            nxt = self.peek()
            if nxt.kind == "ident" and nxt.value != "all":
                self.advance()
                return CheckCmd(names=(nxt.value,), line=tok.line, col=tok.col)
            if nxt.kind == "ident" and nxt.value == "all":
                self.advance()
            return CheckCmd(names=None, line=tok.line, col=tok.col)
        self.fail(f"unknown command {word!r}", tok)

    def parse_numbers(self, minimum: int) -> tuple[float, ...]:
        """Signed numbers separated by spaces or commas, to end of statement."""
        out: list[float] = []
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.value == ",":
                self.advance()
                continue
            sign = 1.0
            if tok.kind == "op" and tok.value == "-":
                self.advance()
                sign = -1.0
                tok = self.peek()
            if tok.kind != "number":
                if sign < 0:
                    self.fail("expected a number after '-'")
                break
            self.advance()
            out.append(sign * float(tok.value))
        if len(out) < minimum:
            self.fail(f"expected at least {minimum} number(s)")
        return tuple(out)

    def parse_signed_number(self) -> float:
        sign = 1.0
        if self.at_op("-"):
            self.advance()
            sign = -1.0
        tok = self.peek()
        if tok.kind != "number":
            self.fail("expected a number")
        self.advance()
        return sign * float(tok.value)

    def parse_entries(self) -> tuple[tuple[tuple[int, ...], float], ...]:
        """"{" (multiindex ":" number) ("," ...)* "}" with 1-based indices."""
        self.expect_op("{")
        entries: list[tuple[tuple[int, ...], float]] = []
        if self.at_op("}"):
            self.advance()
            return tuple(entries)
        while True:
            self.expect_op("(")
            idxs: list[int] = []
            while True:
                idxs.append(self.integer("basis index"))
                if self.at_op(","):
                    self.advance()
                    continue
                break
            self.expect_op(")")
            self.expect_op(":")
            value = self.parse_signed_number()
            entries.append((tuple(idxs), value))
            if self.at_op(","):
                self.advance()
                continue
            break
        self.expect_op("}")
        return tuple(entries)

    # expressions

    def parse_expr(self) -> Node:
        tok = self.peek()
        if self.at_op("-"):
            self.advance()
            first: Node = Neg(operand=self.parse_term(), line=tok.line, col=tok.col)
        else:
            first = self.parse_term()
        node = first
        while self.at_op("+", "-"):
            op = self.advance()
            right = self.parse_term()
            node = BinOp(op=op.value, left=node, right=right, line=op.line, col=op.col)
        return node

    def parse_term(self) -> Node:
        node = self.parse_factor()
        while self.at_op("*", "<>"):
            op = self.advance()
            right = self.parse_factor()
            node = BinOp(op=op.value, left=node, right=right, line=op.line, col=op.col)
        return node

    def parse_factor(self) -> Node:
        node = self.parse_atom()
        while self.at_op("^", "<>^"):
            op = self.advance()
            node = Pow(base=node, exponent=self.integer("exponent"), wick=op.value == "<>^",
                       line=op.line, col=op.col)
        return node

    def parse_atom(self) -> Node:
        tok = self.peek()
        if tok.kind == "number":
            self.advance()
            return Num(value=float(tok.value), line=tok.line, col=tok.col)
        if tok.kind == "ilit":
            order = self.integer("chaos order", skip=1)
            entries = self.parse_entries()
            return ChaosLit(order=order, entries=entries, line=tok.line, col=tok.col)
        if tok.kind == "ident" and tok.value == "eps":
            self.advance()
            self.expect_op("(")
            values: list[float] = []
            if not self.at_op(")"):
                while True:
                    values.append(self.parse_signed_number())
                    if self.at_op(","):
                        self.advance()
                        continue
                    break
            self.expect_op(")")
            return Eps(values=tuple(values), line=tok.line, col=tok.col)
        if tok.kind == "ident":
            if tok.value in RESERVED:
                self.fail(f"{tok.value!r} is a reserved word", tok)
            self.advance()
            return Var(name=tok.value, line=tok.line, col=tok.col)
        if self.at_op("("):
            self.advance()
            node = self.parse_expr()
            self.expect_op(")")
            return node
        self.fail(f"expected an expression, got {tok.value or 'end of input'!r}")


def parse_program(source: str) -> list[Stmt]:
    return _Parser(tokenize(source)).parse_program()


def parse_expr(source: str) -> Node:
    parser = _Parser(tokenize(source))
    node = parser.parse_expr()
    tok = parser.peek()
    if tok.kind not in ("newline", "eof"):
        parser.fail(f"unexpected {tok.value!r} after expression")
    return node


# -- pretty printer -----------------------------------------------------------


def _num_text(v: float) -> str:
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(v)


def _prec(node: Node) -> int:
    if isinstance(node, BinOp):
        return 1 if node.op in ("+", "-") else 2
    if isinstance(node, Pow):
        return 3
    if isinstance(node, Neg):
        return 0
    return 4


def pretty(node: Node) -> str:
    """Minimal-parenthesis text whose reparse gives back the same AST."""
    if isinstance(node, Num):
        return _num_text(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Eps):
        return "eps(" + ", ".join(_num_text(v) for v in node.values) + ")"
    if isinstance(node, ChaosLit):
        inner = ", ".join("(" + ", ".join(str(i) for i in t) + "): " + _num_text(v)
                          for t, v in node.entries)
        return f"I{node.order}{{{inner}}}"
    if isinstance(node, Neg):
        body = pretty(node.operand)
        if _prec(node.operand) < 2:
            body = f"({body})"
        return f"-{body}"
    if isinstance(node, Pow):
        base = pretty(node.base)
        if _prec(node.base) < 4 and not isinstance(node.base, Pow):
            base = f"({base})"
        op = "<>^" if node.wick else "^"
        return f"{base}{op}{node.exponent}"
    if isinstance(node, BinOp):
        p = _prec(node)
        left = pretty(node.left)
        # a leading Neg is legal only at the head of an (sub)expression
        if _prec(node.left) < p and not (isinstance(node.left, Neg) and p == 1):
            left = f"({left})"
        right = pretty(node.right)
        if _prec(node.right) <= p:
            right = f"({right})"
        return f"{left} {node.op} {right}"
    raise TypeError(f"cannot print {type(node).__name__}")


def pretty_stmt(stmt: Stmt) -> str:
    if isinstance(stmt, Assign):
        return f"{stmt.name} = {pretty(stmt.expr)}"
    if isinstance(stmt, EvalCmd):
        return f"eval {pretty(stmt.expr)} at " + " ".join(_num_text(v) for v in stmt.point)
    if isinstance(stmt, ExpectCmd):
        return f"expect {pretty(stmt.expr)}"
    if isinstance(stmt, STransformCmd):
        return f"stransform {pretty(stmt.expr)}, " + ", ".join(_num_text(v) for v in stmt.xi)
    if isinstance(stmt, TranslateCmd):
        return f"translate {pretty(stmt.expr)}, " + ", ".join(_num_text(v) for v in stmt.shift)
    if isinstance(stmt, RenormCmd):
        return f"renorm {pretty(stmt.expr)}"
    if isinstance(stmt, HuMeyerCmd):
        inner = ", ".join("(" + ", ".join(str(i) for i in t) + "): " + _num_text(v)
                          for t, v in stmt.entries)
        return f"humeyer T{stmt.order}{{{inner}}}"
    if isinstance(stmt, CheckCmd):
        if stmt.names is None:
            return "check all"
        return "check " + stmt.names[0]
    raise TypeError(f"cannot print {type(stmt).__name__}")
