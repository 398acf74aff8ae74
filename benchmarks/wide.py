"""Wide-ring models: a degree-d hypersurface in CP^a, times CP^b.

The source is V_d x CP^b and the target CP^a x CP^b; the immersion is the
hypersurface embedding times the identity, with its pushforward (and hence
the source integral) scaled by a multiplier mu.  For mu != 1 the composite
pullback(pushforward(x)) is mu * e * x rather than e * x, so the k-tuple
invariants do not all vanish.  Models are built with the library's public
constructors only.

The k = 1 signature has an independent check: Hirzebruch's signature
theorem gives sig(V_d) = [h^a] (h / tanh h)^(a+1) * tanh(d h), and
sig(CP^b) is 1 for even b and 0 for odd b, so sig(source) is
mu * sig(V_d) * sig(CP^b).  The series code here shares nothing with the
library's.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Tuple

from multipoint.graded import GradedRing
from multipoint.model import ImmersionModel, LinearMap


# ---- independent exact power series (coefficient lists, x^0 first) -------

def _mul(p: List[Fraction], q: List[Fraction], order: int) -> List[Fraction]:
    out = [Fraction(0)] * (order + 1)
    for i, a in enumerate(p[:order + 1]):
        if a:
            for j, b in enumerate(q[:order + 1 - i]):
                out[i + j] += a * b
    return out


def _div(p: List[Fraction], q: List[Fraction], order: int) -> List[Fraction]:
    """p / q for q with a nonzero constant term."""
    out = [Fraction(0)] * (order + 1)
    for n in range(order + 1):
        acc = p[n] if n < len(p) else Fraction(0)
        for j in range(1, n + 1):
            if j < len(q):
                acc -= q[j] * out[n - j]
        out[n] = acc / q[0]
    return out


def _sinh_cosh(scale: int, order: int) -> Tuple[List[Fraction], List[Fraction]]:
    sinh = [Fraction(0)] * (order + 2)
    cosh = [Fraction(0)] * (order + 2)
    fact = Fraction(1)
    for n in range(order + 2):
        if n:
            fact *= n
        (cosh if n % 2 == 0 else sinh)[n] = Fraction(scale) ** n / fact
    return sinh, cosh


def hypersurface_signature(a: int, d: int) -> Fraction:
    """sig(V_d) for a degree-d hypersurface V_d in CP^a, by Hirzebruch."""
    order = a + 1
    sinh1, cosh1 = _sinh_cosh(1, order)
    # h / tanh h = h cosh h / sinh h = cosh h / (sinh h / h)
    x_over_tanh = _div(cosh1, sinh1[1:], order)
    sinh_d, cosh_d = _sinh_cosh(d, order)
    series = _div(sinh_d, cosh_d, order)  # tanh(d h)
    for _ in range(a + 1):
        series = _mul(series, x_over_tanh, order)
    return series[a]


def projective_signature(b: int) -> int:
    return 1 if b % 2 == 0 else 0


def expected_k1_signature(a: int, b: int, d: int, mu: int) -> Fraction:
    return mu * hypersurface_signature(a, d) * projective_signature(b)


# ---- the model -------------------------------------------------------------

def wide_model(a: int, b: int, d: int, mu: int) -> ImmersionModel:
    """V_d x CP^b -> CP^a x CP^b with pushforward multiplier mu.

    Source basis t^i s^j (0 <= i <= a-2) and T s^j, where t^(a-1) = d T;
    target basis h^i s^j.  Source size a(b+1), target size (a+1)(b+1).
    """
    if a < 2 or b < 0 or d < 1 or mu == 0:
        raise ValueError(f"bad wide-model parameters a={a} b={b} d={d} mu={mu}")
    top_v = a - 1  # index a-1 stands for T, the point class of V_d

    def idx(i: int, j: int) -> int:  # basis position of (t or h)^i s^j
        return i * (b + 1) + j

    def v_product(i: int, k: int) -> Dict[int, Fraction]:
        """t^i * t^k in V_d, with t^(a-1) read as T (coefficient 1)."""
        if i == top_v or k == top_v:
            return {top_v: Fraction(1)} if i + k == top_v else {}
        s = i + k
        if s < top_v:
            return {s: Fraction(1)}
        if s == top_v:
            return {top_v: Fraction(d)}
        return {}

    src_labels, src_degrees = [], []
    for i in range(a):
        for j in range(b + 1):
            v = "1" if i == 0 else ("T" if i == top_v else (f"t^{i}" if i > 1 else "t"))
            s = "" if j == 0 else (f"s^{j}" if j > 1 else "s")
            src_labels.append((v + s) if v != "1" else (s or "1"))
            src_degrees.append(2 * i + 2 * j)
    src_products: Dict[Tuple[int, int], Dict[int, Fraction]] = {}
    for i in range(a):
        for j in range(b + 1):
            for k in range(a):
                for l in range(b + 1):
                    p, q = idx(i, j), idx(k, l)
                    if p > q or j + l > b:
                        continue
                    v = v_product(i, k)
                    if v:
                        ((vi, c),) = v.items()
                        src_products[(p, q)] = {idx(vi, j + l): c}
    source = GradedRing(src_labels, src_degrees, src_products,
                        {idx(top_v, b): Fraction(mu)}, name=f"V{d}(CP{a})xCP{b}")

    tgt_labels, tgt_degrees = [], []
    for i in range(a + 1):
        for j in range(b + 1):
            h = "" if i == 0 else (f"h^{i}" if i > 1 else "h")
            s = "" if j == 0 else (f"s^{j}" if j > 1 else "s")
            tgt_labels.append((h + s) or "1")
            tgt_degrees.append(2 * i + 2 * j)
    tgt_products: Dict[Tuple[int, int], Dict[int, Fraction]] = {}
    for i in range(a + 1):
        for j in range(b + 1):
            for k in range(a + 1):
                for l in range(b + 1):
                    p, q = idx(i, j), idx(k, l)
                    if p <= q and i + k <= a and j + l <= b:
                        tgt_products[(p, q)] = {idx(i + k, j + l): Fraction(1)}
    target = GradedRing(tgt_labels, tgt_degrees, tgt_products,
                        {idx(a, b): Fraction(1)}, name=f"CP{a}xCP{b}")

    pull: Dict[int, Dict[int, Fraction]] = {}
    for i in range(a + 1):
        for j in range(b + 1):
            if i < top_v:
                pull[idx(i, j)] = {idx(i, j): Fraction(1)}
            elif i == top_v:
                pull[idx(i, j)] = {idx(top_v, j): Fraction(d)}
            else:
                pull[idx(i, j)] = {}
    push: Dict[int, Dict[int, Fraction]] = {}
    for i in range(a):
        for j in range(b + 1):
            if i < top_v:
                push[idx(i, j)] = {idx(i + 1, j): Fraction(mu * d)}
            else:
                push[idx(i, j)] = {idx(a, j): Fraction(mu)}
    pullback = LinearMap.from_coords(target, source, pull)
    pushforward = LinearMap.from_coords(source, target, push, degree_shift=2)

    h = pullback(target.basis_class(idx(1, 0)))
    euler = d * h
    s = target.basis_class(idx(0, 1)) if b else target.zero()
    s2 = s * s
    h2 = target.basis_class(idx(1, 0)) * target.basis_class(idx(1, 0))
    p_target = (target.unit() + h2) ** (a + 1) * (target.unit() + s2) ** (b + 1)
    p_normal = source.unit() + (d * d) * (h * h)
    p_source = pullback(p_target) * p_normal.invert_unital()
    return ImmersionModel(
        source=source, target=target, pullback=pullback, pushforward=pushforward,
        codim=2, euler=euler, pontrjagin_source=p_source, pontrjagin_target=p_target,
        name=f"wide(a={a},b={b},d={d},mu={mu})")
