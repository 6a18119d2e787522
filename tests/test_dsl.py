"""Lexer, recursive-descent parser, and the printing fixed point."""

import numpy as np
import pytest

from wickchaos.dsl import (Assign, BinOp, ChaosLit, CheckCmd, Eps, EvalCmd,
                           ExpectCmd, HuMeyerCmd, Neg, Num, Pow, RenormCmd,
                           STransformCmd, TranslateCmd, Var, parse_expr,
                           parse_program, pretty, pretty_stmt, tokenize)
from wickchaos.errors import ParseError


def test_tokenize_kinds():
    toks = tokenize("F2 = I2{(1,1): -0.5} <> eps(1.0) # trailing words\n")
    kinds = [t.kind for t in toks]
    assert kinds == ["ident", "op", "ilit", "op", "op", "number", "op",
                     "number", "op", "op", "op", "number", "op", "op",
                     "ident", "op", "number", "op", "newline", "eof"]
    # I<digits> only lexes as a literal when the name stops there
    assert tokenize("I2x")[0].kind == "ident"
    assert tokenize("T41{")[0].kind == "tlit"
    assert tokenize("1.5e-3")[0].value == "1.5e-3"
    assert [t.kind for t in tokenize("a;b")][1] == "newline"


def test_tokenize_positions():
    toks = tokenize("a = 1\n  bad")
    assert (toks[0].line, toks[0].col) == (1, 1)
    assert (toks[2].line, toks[2].col) == (1, 5)
    assert (toks[4].line, toks[4].col) == (2, 3)
    with pytest.raises(ParseError) as e:
        tokenize("a = $")
    assert e.value.line == 1 and e.value.col == 5


def test_golden_precedence():
    # the pinned grammar example: a + (b <> (c^2))
    node = parse_expr("a + b <> c ^ 2")
    assert node == BinOp(op="+", left=Var(name="a"),
                         right=BinOp(op="<>", left=Var(name="b"),
                                     right=Pow(base=Var(name="c"), exponent=2)))
    assert pretty(node) == "a + b <> c^2"


def test_precedence_table():
    a, b, c = Var(name="a"), Var(name="b"), Var(name="c")
    assert parse_expr("a <>^ 2 * b") == BinOp(op="*",
                                              left=Pow(base=a, exponent=2, wick=True),
                                              right=b)
    assert parse_expr("a - b + c") == BinOp(op="+", left=BinOp(op="-", left=a, right=b),
                                            right=c)
    assert parse_expr("a <> b * c") == BinOp(op="*",
                                             left=BinOp(op="<>", left=a, right=b),
                                             right=c)
    assert parse_expr("(a + b) * c") == BinOp(op="*", left=BinOp(op="+", left=a, right=b),
                                              right=c)
    assert parse_expr("a ^ 2 ^ 3") == Pow(base=Pow(base=a, exponent=2), exponent=3)


def test_unary_minus():
    a, b = Var(name="a"), Var(name="b")
    assert parse_expr("-a") == Neg(operand=a)
    # the sign negates the whole leading term
    assert parse_expr("-a * b") == Neg(operand=BinOp(op="*", left=a, right=b))
    assert parse_expr("-a + b") == BinOp(op="+", left=Neg(operand=a), right=b)
    assert parse_expr("-(a + b)") == Neg(operand=BinOp(op="+", left=a, right=b))


def test_literals():
    node = parse_expr("I2{(1, 1): 0.5, (1, 2): -1}")
    assert node == ChaosLit(order=2, entries=(((1, 1), 0.5), ((1, 2), -1.0)))
    assert parse_expr("I0{}") == ChaosLit(order=0, entries=())
    assert parse_expr("eps(0.5, -0.25)") == Eps(values=(0.5, -0.25))
    assert parse_expr("eps()") == Eps(values=())
    assert parse_expr("2.5") == Num(value=2.5)


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as e:
        parse_expr("a + ")
    assert e.value.line == 1
    with pytest.raises(ParseError):
        parse_expr("(a + b")
    with pytest.raises(ParseError):
        parse_expr("a b")  # trailing tokens
    with pytest.raises(ParseError):
        parse_expr("I2{(1.5): 1}")  # float basis index
    with pytest.raises(ParseError):
        parse_expr("a ^ 2.5")  # float exponent
    with pytest.raises(ParseError):
        parse_expr("eps")  # reserved word used bare needs a call
    with pytest.raises(ParseError) as e:
        parse_program("at = 3")
    assert "reserved" in str(e.value)
    with pytest.raises(ParseError):
        parse_program("eps = 3")


@pytest.mark.parametrize("source,col", [
    ("x = a^{}", 7),            # the ^ exponent
    ("x = a<>^{}", 9),          # the <>^ exponent
    ("x = I{}{{}}", 5),         # the chaos order
    ("humeyer T{}{{}}", 9),     # the tensor order
    ("x = I1{{({}): 1}}", 9),   # a basis index
])
def test_integer_literals_past_the_digit_limit(source, col):
    # int() refuses strings of more than 4300 digits by default
    with pytest.raises(ParseError) as e:
        parse_program("\n" + source.format("9" * 5000))
    assert (e.value.line, e.value.col) == (2, col)
    assert "5000 digits" in str(e.value)
    assert parse_program(source.format("1"))


def test_program_statements():
    stmts = parse_program("""
    F = I2{(1,1): 1.0}   # assignment
    expect F; eval F at 0.5 -1.5
    stransform F, -2.0 1.0
    translate F 1 0
    renorm x1^2 - x2
    humeyer T4{(1,1,1,1): 1.0}
    check all
    check chaos_isometry
    """)
    assert [type(s) for s in stmts] == [Assign, ExpectCmd, EvalCmd,
                                        STransformCmd, TranslateCmd, RenormCmd,
                                        HuMeyerCmd, CheckCmd, CheckCmd]
    assert stmts[2].point == (0.5, -1.5)
    assert stmts[3].xi == (-2.0, 1.0)
    assert stmts[4].shift == (1.0, 0.0)
    assert stmts[6] == HuMeyerCmd(order=4, entries=(((1, 1, 1, 1), 1.0),))
    assert stmts[7].names is None
    assert stmts[8].names == ("chaos_isometry",)


def test_greedy_expression_needs_comma_before_negative():
    # without the comma the minus reads as subtraction and eats the number
    with pytest.raises(ParseError):
        parse_program("stransform F -2")
    stmt = parse_program("stransform F, -2")[0]
    assert stmt.xi == (-2.0,)


# ---- random printing fixed point ---------------------------------------------

NAMES = ["a", "b", "c", "F", "G", "zz", "x1", "x2", "foo_bar", "v3"]


def gen_num(rng):
    if rng.random() < 0.5:
        return Num(value=float(rng.integers(0, 50)))
    return Num(value=float(abs(round(rng.normal() * 4, 3))))


def gen_atom(rng, depth):
    r = rng.random()
    if depth <= 0 or r < 0.35:
        return gen_num(rng) if rng.random() < 0.5 else Var(name=str(rng.choice(NAMES)))
    if r < 0.5:
        n_entries = int(rng.integers(0, 3))
        order = int(rng.integers(1, 4))
        entries = tuple(
            (tuple(int(v) for v in rng.integers(1, 4, size=order)),
             float(round(rng.normal(), 3)))
            for _ in range(n_entries))
        return ChaosLit(order=order, entries=entries)
    if r < 0.6:
        return Eps(values=tuple(float(round(v, 3))
                                for v in rng.normal(size=rng.integers(0, 4))))
    return gen_expr(rng, depth - 1)


def gen_factor(rng, depth):
    node = gen_atom(rng, depth)
    while rng.random() < 0.25:
        node = Pow(base=node, exponent=int(rng.integers(0, 5)),
                   wick=bool(rng.random() < 0.5))
    return node


def gen_term(rng, depth):
    node = gen_factor(rng, depth)
    while rng.random() < 0.35:
        node = BinOp(op="<>" if rng.random() < 0.5 else "*", left=node,
                     right=gen_factor(rng, depth))
    return node


def gen_expr(rng, depth):
    node = gen_term(rng, depth)
    if rng.random() < 0.2:
        node = Neg(operand=node)
    while rng.random() < 0.35:
        node = BinOp(op="+" if rng.random() < 0.5 else "-", left=node,
                     right=gen_term(rng, depth))
    return node


def test_print_parse_fixed_point():
    rng = np.random.default_rng(0)
    for _ in range(500):
        ast = gen_expr(rng, depth=3)
        text = pretty(ast)
        back = parse_expr(text)
        assert back == ast, text
        assert pretty(back) == text


def test_stmt_print_parse_fixed_point():
    rng = np.random.default_rng(1)
    for trial in range(200):
        e = gen_expr(rng, depth=2)
        k = trial % 7
        if k == 0:
            stmt = Assign(name=str(rng.choice(NAMES)), expr=e)
        elif k == 1:
            stmt = EvalCmd(expr=e, point=tuple(float(round(v, 3))
                                               for v in rng.normal(size=2)))
        elif k == 2:
            stmt = ExpectCmd(expr=e)
        elif k == 3:
            stmt = STransformCmd(expr=e, xi=tuple(float(round(v, 3))
                                                  for v in rng.normal(size=2)))
        elif k == 4:
            stmt = TranslateCmd(expr=e, shift=(1.0, -0.5))
        elif k == 5:
            stmt = RenormCmd(expr=e)
        else:
            stmt = CheckCmd(names=None if trial % 2 else ("chaos_isometry",))
        text = pretty_stmt(stmt)
        back = parse_program(text)
        assert len(back) == 1 and back[0] == stmt, text
        assert pretty_stmt(back[0]) == text
