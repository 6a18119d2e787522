"""Task pools and correctness oracles of the three benchmark workloads.

Each task kind has a builder ``(wc, rng, tiny) -> Instance``.  An instance
is one input set: the workload seed draws a task seed per instance, and
the task seed alone regenerates the instance, so a failed task can be
replayed on its own (``run.py --replay KIND:SEED``).

Every result is judged by a second route, never against stored output of
the same code: closed forms, an algebraic law, pointwise evaluation, or a
Monte Carlo z-test against the exact value.  A repeated execution of an
instance must reproduce its first result bitwise, and a ``workers=2``
estimate must equal its serial twin bitwise.

Library functions are always looked up through the package at call time
(``wc.wick_product``), so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import random
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

REL_TOL = 1e-9
MC_SAMPLES = 1 << 17          # two 2^16-row chunks per estimate
WARM_SAMPLES = 1 << 10
RETEST_SEED_OFFSET = 1_000_003
CLI_SAMPLES = 4096


@dataclass
class Instance:
    """One task input set: prepare() copies inputs outside the timer,
    execute(args, workers) is the timed library call, verify(result)
    returns None or a failure message.  A Monte Carlo kind also has
    redraw(), the same estimate on an independent sample seed."""

    kind: str
    seed: int
    prepare: Callable[[], tuple]
    execute: Callable[[tuple, int], Any]
    verify: Callable[[Any], str | None]
    same: Callable[[Any, Any], bool]
    corrupt: Callable[[Any], Any]
    warm: Callable[[], Any] | None = None
    redraw: Callable[[], Any] | None = None
    stats: dict = dataclasses.field(default_factory=dict)

    @property
    def key(self) -> str:
        return f"{self.kind}:{self.seed}"


def judge(inst: Instance, result, fault: bool = False) -> str | None:
    """Verify one result.  A correct estimator still exceeds
    ZSCORE_THRESHOLD with probability ~0.27%, so a Monte Carlo result that
    fails is judged again on its redraw, and fails only if both do; a wrong
    estimator fails both.  With fault, the deliberate error of the
    self-test is applied to the result and to the redraw alike."""
    if fault:
        result = inst.corrupt(result)
    msg = inst.verify(result)
    if msg is None or inst.redraw is None:
        return msg
    inst.stats["retests"] = inst.stats.get("retests", 0) + 1
    again = inst.redraw()
    if fault:
        again = inst.corrupt(again)
    msg2 = inst.verify(again)
    return None if msg2 is None else f"{msg}; redraw: {msg2}"


def _close(a: float, b: float, scale: float = 1.0) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b), scale)


def _copy(wc, F):
    """A new ChaosVector with the same terms, so no call sees an input
    object it has seen before."""
    return wc.ChaosVector(F.dim, F.max_order, F.terms, prune=F.prune)


def _vectors_equal(a, b) -> bool:
    return a == b and a.max_order == b.max_order


def _trunc_exp(t: float, K: int) -> float:
    return math.fsum(t ** n / math.factorial(n) for n in range(K + 1))


def _exp_vector_coeff(alpha, h) -> float:
    out = 1.0
    for i, m in alpha.entries:
        out *= h[i] ** m / math.factorial(m)
    return out


# -- dense_products -----------------------------------------------------------


def _wick(d: int, K: int):
    def build(wc, rng, tiny):
        dd, KK = (2, 3) if tiny else (d, K)
        f, g = rng.uniform(-0.5, 0.5, dd), rng.uniform(-0.5, 0.5, dd)
        F = wc.exponential_vector(list(f), KK)
        G = wc.exponential_vector(list(g), KK)
        h = f + g

        def verify(P):
            # E(f) <> E(g) = E(f + g), degree by degree up to the clip order.
            mass = 0.0
            for alpha, c in P.items():
                want = _exp_vector_coeff(alpha, h)
                if alpha.degree > KK or not _close(c, want):
                    return f"coefficient at {alpha} is {c!r}, closed form {want!r}"
                mass += abs(want)
            # A term whose sum cancels to exactly 0.0 is legitimately dropped;
            # the closed-form mass of all absent terms must be negligible.
            missing = _trunc_exp(float(np.abs(h).sum()), KK) - mass
            if missing > REL_TOL * (1.0 + mass):
                return f"terms of closed-form mass {missing!r} are missing"
            return None

        return dict(prepare=lambda: (_copy(wc, F), _copy(wc, G)),
                    execute=lambda a, w: wc.wick_product(a[0], a[1], clip=True),
                    verify=verify, same=_vectors_equal,
                    corrupt=lambda P: wc.scale(P, 1.001))
    return build


def _ordinary(d: int, K: int):
    def build(wc, rng, tiny):
        dd, KK = (2, 3) if tiny else (d, K)
        F = wc.exponential_vector(list(rng.uniform(-0.5, 0.5, dd)), KK)
        G = wc.exponential_vector(list(rng.uniform(-0.5, 0.5, dd)), KK)
        points = rng.normal(size=(3, dd))

        def verify(P):
            # E[FG] = <F, G>: the expectation survives clipping unchanged.
            if not _close(wc.expectation(P), wc.inner_product(F, G)):
                return f"E[FG] {wc.expectation(P)!r} != <F,G> {wc.inner_product(F, G)!r}"
            # The unclipped product is F*G pointwise; the clipped one is its
            # projection onto degrees <= K.
            U = wc.ordinary_product(F.with_max_order(2 * KK), G.with_max_order(2 * KK))
            for x in points:
                fg = wc.evaluate_at(F, x) * wc.evaluate_at(G, x)
                if not _close(wc.evaluate_at(U, x), fg):
                    return f"unclipped product at {list(x)} is not F(x)G(x) = {fg!r}"
            for alpha, c in U.items():
                if alpha.degree <= KK and not _close(P.coeff(alpha), c):
                    return f"clipped coefficient at {alpha} differs from the projection"
            if any(alpha.degree > KK for alpha, _ in P.items()):
                return "clipped product holds a term above the clip order"
            return None

        return dict(prepare=lambda: (_copy(wc, F), _copy(wc, G)),
                    execute=lambda a, w: wc.ordinary_product(a[0], a[1], clip=True),
                    verify=verify, same=_vectors_equal,
                    corrupt=lambda P: wc.scale(P, 1.001))
    return build


def _translate(d: int, K: int):
    def build(wc, rng, tiny):
        dd, KK = (2, 3) if tiny else (d, K)
        f = rng.uniform(-0.5, 0.5, dd)
        y = rng.uniform(-0.5, 0.5, dd)
        F = wc.exponential_vector(list(f), KK)
        xis = rng.uniform(-0.5, 0.5, (3, dd))

        def verify(T):
            # S(tau_y F)(xi) = S(F)(xi + y), and S(E_K(f))(z) = exp_K(<f, z>).
            for xi in xis:
                want = _trunc_exp(float(f @ (xi + y)), KK)
                got = wc.s_transform(T, list(xi))
                if not _close(got, want):
                    return f"S(tau_y F)({list(xi)}) = {got!r}, closed form {want!r}"
            return None

        return dict(prepare=lambda: (_copy(wc, F), list(y)),
                    execute=lambda a, w: wc.translate(a[0], a[1]),
                    verify=verify, same=_vectors_equal,
                    corrupt=lambda T: wc.scale(T, 1.001))
    return build


def _wick_exp_i2(d: int, K: int):
    def build(wc, rng, tiny):
        dd, KK = (2, 2) if tiny else (d, K)
        vals = {(i, j): float(rng.uniform(-0.1, 0.1)) for i in range(dd) for j in range(i, dd)}
        M = np.zeros((dd, dd))
        for (i, j), v in vals.items():
            M[i, j] = M[j, i] = v
        xis = rng.uniform(-1.0, 1.0, (3, dd))

        def verify(R):
            # S(:exp(x'Mx/2):)(xi) = exp(-tr M/2) exp_K(xi'M xi / 2): the
            # S-transform maps Wick powers of I_2(M)/2 to powers of xi'M xi/2.
            pref = math.exp(-0.5 * float(np.trace(M)))
            for xi in xis:
                want = pref * _trunc_exp(0.5 * float(xi @ M @ xi), KK)
                got = wc.s_transform(R.series, list(xi))
                if not _close(got, want):
                    return f"S(series)({list(xi)}) = {got!r}, closed form {want!r}"
            basis = np.asarray(R.basis)
            if not np.allclose(M @ basis, basis * np.asarray(R.eigenvalues), atol=1e-10):
                return "eigenpairs do not diagonalize M"
            return None

        def same(a, b):
            return (_vectors_equal(a.series, b.series) and a.eigenvalues == b.eigenvalues
                    and np.array_equal(a.basis, b.basis))

        return dict(prepare=lambda: (wc.SymTensor(dd, 2, vals, prune=0.0),),
                    execute=lambda a, w: wc.wick_exp_I2(a[0], K=KK),
                    verify=verify, same=same,
                    corrupt=lambda R: dataclasses.replace(R, series=wc.scale(R.series, 1.001)))
    return build


# -- mc_crosscheck --------------------------------------------------------------


def _estimator(what: str, d: int):
    """One Monte Carlo estimator on a scaled exponential vector of dimension
    d at order 8 (45 terms at d=2, 495 at d=4)."""
    def build(wc, rng, tiny):
        dd, K = (2, 3) if tiny else (d, 8)
        n = 2 * WARM_SAMPLES if tiny else MC_SAMPLES

        def vec():
            return wc.scale(wc.exponential_vector(list(rng.uniform(-0.25, 0.25, dd)), K),
                            float(rng.uniform(0.5, 1.5)))

        F, G = vec(), vec()
        xi = list(rng.uniform(-0.25, 0.25, dd))
        sample_seed = int(rng.integers(0, 2 ** 31))

        def estimate(F_, G_, n_, seed, workers):
            if what == "expectation":
                return wc.estimate_expectation(F_, n_, seed, workers=workers)
            if what == "pair":
                return wc.estimate_pair_expectation(F_, G_, n_, seed, workers=workers)
            if what == "stransform_mc":
                return wc.s_transform_mc(F_, xi, n_, seed, workers=workers)
            return wc.estimate_lp_norm(F_, 2.0, n_, seed, workers=workers)

        def exact():
            if what == "expectation":
                return wc.expectation(F)
            if what == "pair":
                return wc.inner_product(F, G)
            if what == "stransform_mc":
                return wc.s_transform(F, xi)
            return wc.l2_norm(F)

        return dict(prepare=lambda: (_copy(wc, F), _copy(wc, G)),
                    execute=lambda a, w: estimate(a[0], a[1], n, sample_seed, w),
                    verify=lambda est: _ztest(wc, est, exact()),
                    redraw=lambda: estimate(F, G, n, sample_seed + RETEST_SEED_OFFSET, 1),
                    same=lambda a, b: a == b,
                    corrupt=lambda e: dataclasses.replace(e, value=e.value + 50 * e.std_error + 1e-3),
                    warm=lambda: (estimate(F, G, WARM_SAMPLES, sample_seed, 1),
                                  estimate(F, G, WARM_SAMPLES, sample_seed, 2)))
    return build


def _ztest(wc, est, exact: float) -> str | None:
    """zscore_check at ZSCORE_THRESHOLD."""
    z = wc.zscore_check(est, exact)
    if z <= wc.ZSCORE_THRESHOLD:
        return None
    return f"z = {z:.2f} > {wc.ZSCORE_THRESHOLD} against exact {exact!r}"


def _icopy(d: int, deg: int):
    """wick_order_icopy_mc on a dense polynomial of total degree <= deg."""
    def build(wc, rng, tiny):
        dd, dg = (2, 3) if tiny else (d, deg)
        n = 2 * WARM_SAMPLES if tiny else MC_SAMPLES
        terms = {}
        for exps in np.ndindex(*([dg + 1] * dd)):
            if sum(exps) <= dg:
                alpha = wc.MultiIndex([(i, m) for i, m in enumerate(exps)])
                terms[alpha] = float(rng.uniform(-1.0, 1.0)) / math.factorial(sum(exps))
        variances = list(rng.uniform(0.3, 1.0, dd))
        point = list(rng.uniform(-1.0, 1.0, dd))
        sample_seed = int(rng.integers(0, 2 ** 31))

        def poly():
            return wc.PolySeries(dd, terms, truncation=dg)

        def run(p, n_, seed):
            return wc.wick_order_icopy_mc(p, variances, [point], n_, seed)

        def verify(ests):
            return _ztest(wc, ests[0], wc.wick_order_icopy_exact(poly(), variances, point))

        return dict(prepare=lambda: (poly(),),
                    execute=lambda a, w: run(a[0], n, sample_seed),
                    verify=verify, redraw=lambda: run(poly(), n, sample_seed + RETEST_SEED_OFFSET),
                    same=lambda a, b: a == b,
                    corrupt=lambda es: [dataclasses.replace(es[0], value=es[0].value + 1.0)],
                    warm=lambda: run(poly(), WARM_SAMPLES, sample_seed))
    return build


# -- calculator ------------------------------------------------------------------


def _r(x) -> str:
    return repr(float(x))


def _fmt(v) -> str:
    return ", ".join(_r(x) for x in v)


def _plus(v: float) -> str:
    """'+ v' or '- |v|': the DSL has no unary minus after a binary operator."""
    return f"+ {_r(v)}" if v >= 0 else f"- {_r(-v)}"


def _cli(wc, argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = wc.cli.main(argv)
    return rc, buf.getvalue()


def _bump(obj):
    """Shift the first float found in a JSON document by 1."""
    if isinstance(obj, dict):
        for k, v in obj.items():
            if isinstance(v, float):
                obj[k] = v + 1.0
                return True
            if _bump(v):
                return True
    if isinstance(obj, list):
        return any(_bump(v) for v in obj)
    return False


def _corrupt_cli(out):
    rc, text = out
    lines = text.splitlines()
    obj = json.loads(lines[0])
    _bump(obj)
    return rc, "\n".join([json.dumps(obj)] + lines[1:]) + "\n"


def _script(make: Callable):
    """A DSL script run through wickchaos.cli.main.  make(wc, rng, tiny)
    returns (argv, judge); judge(list of output objects) -> None or message."""
    def build(wc, rng, tiny):
        argv, judge = make(wc, rng, tiny)

        def verify(out):
            rc, text = out
            if rc != 0:
                return f"exit code {rc}"
            try:
                objs = [json.loads(line) for line in text.splitlines()]
            except json.JSONDecodeError as e:
                return f"output is not JSON lines: {e}"
            return judge(objs)

        return dict(prepare=lambda: (list(argv),),
                    execute=lambda a, w: _cli(wc, a[0]),
                    verify=verify, same=lambda a, b: a == b, corrupt=_corrupt_cli)
    return build


def _values_match(objs, wants) -> str | None:
    if len(objs) != len(wants):
        return f"{len(objs)} outputs, expected {len(wants)}"
    for obj, want in zip(objs, wants):
        if not _close(obj["value"], want):
            return f"{obj['command']} printed {obj['value']!r}, closed form {want!r}"
    return None


def _alg_script(wc, rng, tiny):
    """*, <> and S-transform on exponential vectors (dim 2, order 6)."""
    K = 3 if tiny else 6
    f, g, xi = (rng.uniform(-0.5, 0.5, 2) for _ in range(3))
    src = (f"a = eps({_fmt(f)})\nb = eps({_fmt(g)})\n"
           f"expect a * b\nexpect a <> b\nstransform a <> b, {_fmt(xi)}")
    wants = [_trunc_exp(float(f @ g), K), 1.0, _trunc_exp(float((f + g) @ xi), K)]
    return (["--dim", "2", "--order", str(K), "-c", src],
            lambda objs: _values_match(objs, wants))


def _pow_script(wc, rng, tiny):
    """Small ordinary and Wick powers of a Gaussian (dim 3, order 4)."""
    s, xi = rng.uniform(-0.8, 0.8, 3), rng.uniform(-0.8, 0.8, 3)
    src = (f"a = I1{{(1): {_r(s[0])}, (2): {_r(s[1])}, (3): {_r(s[2])}}}\n"
           f"expect a^4\nexpect (a + 1)^2\nstransform a<>^3, {_fmt(xi)}")
    v = float(s @ s)
    wants = [3.0 * v * v, v + 1.0, float(s @ xi) ** 3]
    return (["--dim", "3", "--order", "4", "-c", src],
            lambda objs: _values_match(objs, wants))


def _eval_script(wc, rng, tiny):
    """eval, stransform and expect on a literal second-chaos vector."""
    c11, c12, c22, b1, c0 = rng.uniform(-1.0, 1.0, 5)
    x, xi = rng.uniform(-1.5, 1.5, 2), rng.uniform(-1.0, 1.0, 2)
    src = (f"F = I2{{(1,1): {_r(c11)}, (1,2): {_r(c12)}, (2,2): {_r(c22)}}} "
           f"+ I1{{(1): {_r(b1)}}} {_plus(c0)}\n"
           f"eval F at {_fmt(x)}\nstransform F, {_fmt(xi)}\nexpect F * F")
    wants = [c11 * (x[0] ** 2 - 1) + 2 * c12 * x[0] * x[1] + c22 * (x[1] ** 2 - 1)
             + b1 * x[0] + c0,
             c11 * xi[0] ** 2 + 2 * c12 * xi[0] * xi[1] + c22 * xi[1] ** 2 + b1 * xi[0] + c0,
             c0 ** 2 + b1 ** 2 + 2 * (c11 ** 2 + 2 * c12 ** 2 + c22 ** 2)]
    return (["--dim", "2", "--order", "8", "-c", src],
            lambda objs: _values_match(objs, wants))


def _translate_script(wc, rng, tiny):
    """translate of an exponential vector, judged by S(tau_y F)(xi) = S(F)(xi + y)."""
    K = 3 if tiny else 5
    f, y = rng.uniform(-0.5, 0.5, 3), rng.uniform(-0.5, 0.5, 3)
    xis = rng.uniform(-0.5, 0.5, (3, 3))
    src = f"F = eps({_fmt(f)})\ntranslate F, {_fmt(y)}"

    def judge(objs):
        if len(objs) != 1:
            return f"{len(objs)} outputs, expected 1"
        T = wc.chaos_from_obj(objs[0]["result"])
        for xi in xis:
            want = _trunc_exp(float(f @ (xi + y)), K)
            if not _close(wc.s_transform(T, list(xi)), want):
                return f"S(tau_y F)({list(xi)}) != closed form {want!r}"
        return None

    return (["--dim", "3", "--order", str(K), "-c", src], judge)


def _renorm_script(wc, rng, tiny):
    """renorm at unit variance maps each monomial to its Hermite product."""
    c1, c2, c3 = rng.uniform(-2.0, 2.0, 3)
    src = f"renorm {_r(c1)} * x1^3 * x2 - {_r(abs(c2))} * x1^2 {_plus(c3)}"
    want = {((1, 3), (2, 1)): c1, ((1, 2),): -abs(c2), (): c3}
    return (["--dim", "2", "--order", "6", "-c", src],
            lambda objs: _terms_match(objs, want))


def _humeyer_script(wc, rng, tiny):
    """humeyer T2{...} = I_2(f) + tr f (Hu-Meyer at order 2)."""
    a, b, c = rng.uniform(-1.0, 1.0, 3)
    src = f"humeyer T2{{(1,1): {_r(a)}, (1,2): {_r(b)}, (3,3): {_r(c)}}}"
    want = {((1, 2),): a, ((1, 1), (2, 1)): 2 * b, ((3, 2),): c, (): a + c}
    return (["--dim", "3", "--order", "4", "-c", src],
            lambda objs: _terms_match(objs, want))


def _terms_match(objs, want) -> str | None:
    if len(objs) != 1:
        return f"{len(objs)} outputs, expected 1"
    got = {tuple(tuple(p) for p in t["alpha"]): t["coeff"] for t in objs[0]["result"]["terms"]}
    if set(got) != {k for k, v in want.items() if v != 0.0}:
        return f"terms {sorted(got)} differ from closed form {sorted(want)}"
    for k, v in want.items():
        if v != 0.0 and not _close(got[k], v):
            return f"coefficient at {k} is {got[k]!r}, closed form {v!r}"
    return None


_MC_CLOSED = {"mean_zero_mc": 0.0, "second_moment_mc": 1.0, "quartic_norm_mc": 3.0 ** 0.25}


def _check_row(name: str):
    """`check NAME` through the CLI; the row must pass and equal the row the
    library returns when called directly (the CLI, DSL, runtime and JSON
    layers must not change it)."""
    def build(wc, rng, tiny):
        seed = int(rng.integers(0, 2 ** 31))

        def argv(s):
            return ["--seed", str(s), "--samples", str(CLI_SAMPLES), "-c", f"check {name}"]

        stats = {"retests": 0}

        def verify(out):
            rc, text = out
            lines = text.splitlines()
            if len(lines) != 1:
                return f"{len(lines)} output lines"
            row = json.loads(lines[0])
            direct = wc.run_checks([name], seed=seed, n_samples=CLI_SAMPLES)[0]
            if row != direct.report_obj():
                return f"CLI row {row} != library row {direct.report_obj()}"
            if not name.endswith("_mc"):
                if rc != 0 or row["estimate"] > 1e-9:
                    return f"identity gap {row['estimate']!r}, exit code {rc}"
                return None
            if name in _MC_CLOSED and row["exact"] != _MC_CLOSED[name]:
                return f"exact {row['exact']!r} != closed form {_MC_CLOSED[name]!r}"
            if row["std_error"] > 0 and not _close(
                    row["zscore"], abs(row["estimate"] - row["exact"]) / row["std_error"]):
                return "reported zscore does not match estimate and std_error"
            if rc == 0 and row["zscore"] <= wc.ZSCORE_THRESHOLD:
                return None
            # Confirm an exceedance on another seed before failing the row.
            stats["retests"] += 1
            rc2, text2 = _cli(wc, argv(seed + RETEST_SEED_OFFSET))
            z2 = json.loads(text2.splitlines()[0])["zscore"]
            if rc2 == 0 and z2 <= wc.ZSCORE_THRESHOLD:
                return None
            return f"z = {row['zscore']:.2f}, retest z = {z2:.2f}"

        return dict(prepare=lambda: (argv(seed),),
                    execute=lambda a, w: _cli(wc, a[0]),
                    verify=verify, same=lambda a, b: a == b, stats=stats,
                    corrupt=_corrupt_cli)
    return build


EXACT_CHECKS = ("wick_convolution_vs_malliavin", "product_vs_wick_gradients",
                "product_pointwise", "chaos_isometry", "exponential_vector_law",
                "stransform_multiplicative", "gaussian_wick_chain",
                "wick_gaussian_pairing", "hu_meyer_roundtrip",
                "stratonovich_product_sum", "stratonovich_pointwise",
                "moment_identity", "icopy_exact", "hypercontractivity",
                "independence_factorization", "wick_norm_inequality",
                "translation_laws", "renorm_product_law", "wick_exp_series_closed")
# The five slowest rows run once per cycle, so that the 90th percentile
# falls in the seed-independent cli_alg block rather than among rows whose
# cost varies with their random corpus.
HEAVY_CHECKS = ("wick_convolution_vs_malliavin", "product_vs_wick_gradients",
                "product_pointwise", "exponential_vector_law", "wick_exp_series_closed")
MC_CHECKS = ("mean_zero_mc", "second_moment_mc", "stransform_pairing_mc",
             "quartic_norm_mc", "icopy_poly_mc", "wick_pairing_mc")


# -- workload definitions -----------------------------------------------------------
#
# A workload is one cycle of slots (kind, workers, copies) run in a seeded
# order, over and over, by one closed-loop client.  The copy counts place
# the 50th and 90th latency percentiles inside one task kind (or a cluster
# of kinds of near-equal latency), away from a gap between kinds, so that
# timing noise cannot move a percentile across the gap (latencies measured
# on a 2-core Intel Xeon; see README.md).

BUILDERS: dict[str, Callable] = {
    "wick_d4_K8": _wick(4, 8),
    "wick_d3_K6": _wick(3, 6),
    "ordinary_d2_K8": _ordinary(2, 8),
    "ordinary_d3_K6": _ordinary(3, 6),
    "translate_d4_K8": _translate(4, 8),
    "wick_exp_I2_d5_K4": _wick_exp_i2(5, 4),
    "cli_alg_d2_K6": _script(_alg_script),
    "cli_pow_d3_K4": _script(_pow_script),
    "cli_eval_d2_K8": _script(_eval_script),
    "cli_translate_d3_K5": _script(_translate_script),
    "cli_renorm_d2_K6": _script(_renorm_script),
    "cli_humeyer_d3_K4": _script(_humeyer_script),
    "icopy_d2_deg6": _icopy(2, 6),
    "icopy_d4_deg4": _icopy(4, 4),
}
for _what in ("expectation", "pair", "stransform_mc", "lp_norm"):
    for _d in (2, 4):
        BUILDERS[f"{_what}_d{_d}"] = _estimator(_what, _d)
for _name in EXACT_CHECKS + MC_CHECKS:
    BUILDERS[f"check_{_name}"] = _check_row(_name)

# (kind, workers, copies).  Copies are distinct instances, except for the
# estimators that take a workers argument: each is one instance run at both
# worker counts, so every workers=2 estimate has a serial twin.
WORKLOADS: dict[str, list[tuple[str, int, int]]] = {
    "dense_products": [
        ("wick_d3_K6", 1, 1), ("wick_exp_I2_d5_K4", 1, 1),
        ("ordinary_d2_K8", 1, 1), ("translate_d4_K8", 1, 1),
        ("wick_d4_K8", 1, 5), ("ordinary_d3_K6", 1, 2),
    ],
    "mc_crosscheck": (
        [(f"{w}_d2", k, 2) for w in ("expectation", "stransform_mc", "lp_norm")
         for k in (1, 2)]
        + [("pair_d2", 2, 2), ("pair_d2", 1, 2), ("icopy_d2_deg6", 1, 2)]
        + [(f"{w}_d4", k, 1) for w in ("expectation", "stransform_mc", "lp_norm")
           for k in (1, 2)]
        + [("pair_d4", 2, 1), ("pair_d4", 1, 5), ("icopy_d4_deg4", 1, 1)]
    ),
    "calculator": (
        [("cli_pow_d3_K4", 1, 12), ("cli_eval_d2_K8", 1, 8), ("cli_renorm_d2_K6", 1, 8),
         ("cli_humeyer_d3_K4", 1, 10), ("cli_translate_d3_K5", 1, 24),
         ("cli_alg_d2_K6", 1, 12)]
        + [(f"check_{n}", 1, 1 if n in HEAVY_CHECKS else 3) for n in EXACT_CHECKS]
        + [(f"check_{n}", 1, 2) for n in MC_CHECKS]
    ),
}

SHARED_ACROSS_WORKERS = ("expectation", "pair", "stransform_mc", "lp_norm")


def make_instance(wc, kind: str, seed: int, tiny: bool) -> Instance:
    """Regenerate one task from its kind and task seed alone."""
    return Instance(kind=kind, seed=seed,
                    **BUILDERS[kind](wc, np.random.default_rng(seed), tiny))


def build_cycle(wc, workload: str, seed: int, tiny: bool) -> list[tuple[Instance, int]]:
    """The slots of one cycle, in the seeded order every cycle repeats."""
    rng = random.Random(f"{workload}:{seed}")
    slots: list[tuple[Instance, int]] = []
    shared: dict[str, Instance] = {}
    for kind, workers, copies in WORKLOADS[workload]:
        for _ in range(copies):
            if kind.startswith(SHARED_ACROSS_WORKERS):
                if kind not in shared:
                    shared[kind] = make_instance(wc, kind, rng.getrandbits(31), tiny)
                inst = shared[kind]
            else:
                inst = make_instance(wc, kind, rng.getrandbits(31), tiny)
            slots.append((inst, workers))
    rng.shuffle(slots)
    return slots
