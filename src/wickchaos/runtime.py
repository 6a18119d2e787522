"""Session state and execution of parsed DSL programs.

A session fixes the ambient dimension and truncation order.  All DSL
arithmetic runs in projection mode: products clip to the session order
instead of raising, so exponential vectors can be multiplied freely.
Numeric argument vectors shorter than the dimension are padded with
zeros.  Library code called directly (not through the DSL) keeps the
strict overflow behavior.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from . import dsl
from .chaos import (ChaosVector, SymTensor, add, evaluate_at, expectation,
                    exponential_vector, from_tensor, ordinary_product, scale,
                    wick_power, wick_product)
from .checks import CHECKS, CheckRow, run_checks
from .errors import WickChaosError
from .renormalization import (PolySeries, poly_add, poly_mul, poly_power, poly_scale,
                              wick_order_poly)
from .stransform import s_transform, translate
from .stratonovich import stratonovich_integral
from .serialization import chaos_to_obj


MAX_POWER = 10 ** 5  # largest ordinary '^' exponent: one clipped product per unit
MAX_ORDER = 10 ** 4  # largest session order: eps(1) * eps(1) takes ~0.7 s there
MAX_DIM = 10 ** 6  # largest session dimension: each padded vector holds dim floats
MAX_SAMPLES = 10 ** 8  # largest Monte Carlo sample count: seconds per check row


class CommandError(WickChaosError):
    """A well-formed statement that cannot be executed as written."""


@dataclass
class ScalarOutput:
    command: str
    payload: dict


@dataclass
class VectorOutput:
    command: str
    vector: ChaosVector

    @property
    def payload(self) -> dict:
        return {"command": self.command, "result": chaos_to_obj(self.vector)}


@dataclass
class CheckOutput:
    rows: list[CheckRow]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows)


@dataclass
class Session:
    dim: int = 2
    max_order: int = 8
    seed: int = 0
    n_samples: int = 10 ** 6
    tolerance: float = 1e-9
    env: dict[str, ChaosVector] = field(default_factory=dict)

    def pad(self, values: Sequence[float]) -> list[float]:
        if len(values) > self.dim:
            raise CommandError(
                f"{len(values)} numbers given, session dimension is {self.dim}")
        return list(values) + [0.0] * (self.dim - len(values))

    # -- chaos-valued expression evaluation --

    def eval_expr(self, node: dsl.Node) -> ChaosVector:
        if isinstance(node, dsl.Num):
            return ChaosVector.constant(node.value, self.dim, self.max_order)
        if isinstance(node, dsl.Var):
            try:
                return self.env[node.name]
            except KeyError:
                raise CommandError(f"undefined identifier {node.name!r}") from None
        if isinstance(node, dsl.ChaosLit):
            return from_tensor(self._tensor_literal(node), max_order=self.max_order)
        if isinstance(node, dsl.Eps):
            return exponential_vector(self.pad(node.values), self.max_order)
        if isinstance(node, dsl.Neg):
            return scale(self.eval_expr(node.operand), -1.0)
        if isinstance(node, dsl.BinOp):
            left = self.eval_expr(node.left)
            right = self.eval_expr(node.right)
            if node.op == "+":
                return add(left, right)
            if node.op == "-":
                return add(left, scale(right, -1.0))
            if node.op == "*":
                return ordinary_product(left, right, clip=True)
            return wick_product(left, right, clip=True)
        if isinstance(node, dsl.Pow):
            if not node.wick and node.exponent > MAX_POWER:
                raise CommandError(f"exponent {node.exponent} of '^' exceeds {MAX_POWER}")
            base = self.eval_expr(node.base)
            if node.wick:
                return wick_power(base, node.exponent, clip=True)
            # Sequential on purpose: an ordinary product lowers degrees, so a
            # term clipped from an intermediate power would feed kept terms
            # of the next one, and squaring would change the clipped result.
            out = ChaosVector.constant(1.0, self.dim, self.max_order)
            for _ in range(node.exponent):
                out = ordinary_product(out, base, clip=True)
            return out
        raise TypeError(f"cannot evaluate {type(node).__name__}")

    def _tensor_literal(self, node: dsl.ChaosLit | dsl.HuMeyerCmd) -> SymTensor:
        """The symmetric tensor of an I_n{...} or humeyer T_n{...} literal."""
        if node.order > self.max_order:
            raise CommandError(
                f"tensor order {node.order} exceeds session order {self.max_order}")
        values: dict[tuple[int, ...], float] = {}
        for idxs, v in node.entries:
            if len(idxs) != node.order:
                raise CommandError(
                    f"index tuple {idxs} has {len(idxs)} entries, expected {node.order}")
            for i in idxs:
                if not 1 <= i <= self.dim:
                    raise CommandError(f"basis index {i} outside 1..{self.dim}")
            key = tuple(sorted(i - 1 for i in idxs))
            values[key] = values.get(key, 0.0) + v
        return SymTensor(self.dim, node.order, values)

    # -- polynomial-mode evaluation (renorm command) --

    def eval_poly(self, node: dsl.Node) -> PolySeries:
        if isinstance(node, dsl.Num):
            return PolySeries.constant(node.value, self.dim, self.max_order)
        if isinstance(node, dsl.Var):
            name = node.name
            if name.startswith("x") and name[1:].isdigit():
                i = int(name[1:])
                if 1 <= i <= self.dim:
                    return PolySeries.variable(i - 1, self.dim, self.max_order)
                raise CommandError(f"variable {name!r} outside x1..x{self.dim}")
            raise CommandError(
                f"renorm polynomials use variables x1..x{self.dim}, got {name!r}")
        if isinstance(node, dsl.Neg):
            return poly_scale(self.eval_poly(node.operand), -1.0)
        if isinstance(node, dsl.BinOp):
            if node.op == "<>":
                raise CommandError("'<>' is not defined for renorm polynomials")
            left = self.eval_poly(node.left)
            right = self.eval_poly(node.right)
            if node.op == "+":
                return poly_add(left, right)
            if node.op == "-":
                return poly_add(left, poly_scale(right, -1.0))
            return poly_mul(left, right, clip=True)
        if isinstance(node, dsl.Pow):
            if node.wick:
                raise CommandError("'<>^' is not defined for renorm polynomials")
            return poly_power(self.eval_poly(node.base), node.exponent, clip=True)
        raise CommandError(
            f"{type(node).__name__} literals are not allowed in renorm polynomials")

    # -- statements --

    def execute(self, stmt: dsl.Stmt) -> ScalarOutput | VectorOutput | CheckOutput | None:
        if isinstance(stmt, dsl.Assign):
            self.env[stmt.name] = self.eval_expr(stmt.expr)
            return None
        if isinstance(stmt, dsl.EvalCmd):
            F = self.eval_expr(stmt.expr)
            point = self.pad(stmt.point)
            return ScalarOutput("eval", {"command": "eval", "point": point,
                                         "value": evaluate_at(F, point)})
        if isinstance(stmt, dsl.ExpectCmd):
            F = self.eval_expr(stmt.expr)
            return ScalarOutput("expect", {"command": "expect",
                                           "value": expectation(F)})
        if isinstance(stmt, dsl.STransformCmd):
            F = self.eval_expr(stmt.expr)
            xi = self.pad(stmt.xi)
            return ScalarOutput("stransform", {"command": "stransform", "xi": xi,
                                               "value": s_transform(F, xi)})
        if isinstance(stmt, dsl.TranslateCmd):
            F = self.eval_expr(stmt.expr)
            shift = self.pad(stmt.shift)
            return VectorOutput("translate", translate(F, shift))
        if isinstance(stmt, dsl.RenormCmd):
            p = self.eval_poly(stmt.expr)
            return VectorOutput("renorm", wick_order_poly(p))
        if isinstance(stmt, dsl.HuMeyerCmd):
            return VectorOutput("humeyer", stratonovich_integral(self._tensor_literal(stmt)))
        if isinstance(stmt, dsl.CheckCmd):
            names = None if stmt.names is None else list(stmt.names)
            for name in names or ():
                if name not in CHECKS:
                    raise CommandError(f"unknown identity {name!r}")
            rows = run_checks(names, seed=self.seed, n_samples=self.n_samples,
                              tolerance=self.tolerance)
            return CheckOutput(rows)
        raise TypeError(f"cannot execute {type(stmt).__name__}")

    def run_program(self, source: str) -> list[ScalarOutput | VectorOutput | CheckOutput]:
        outputs = []
        for stmt in dsl.parse_program(source):
            out = self.execute(stmt)
            if out is not None:
                outputs.append(out)
        return outputs
