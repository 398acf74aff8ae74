"""The signature kernel: the entry checks, the one rule for a value known
to be 0 (``zero_warning``), the transfer kernel, the collected chain,
Herbert's closed form, the signature routes, the virtual signature class
and ``evaluate``, the one entry point for every quantity, with its record.

This is all that a signature or virtual-class query runs; the genera,
characteristic numbers and tensor transfers live in ``formulas``,
imported by ``evaluate`` for a number only, and a disjoint union of
components in ``union``, so such a query compiles neither.

Partition sums over an arbitrary tensor argument run as a recursion over
the subsets of {1,...,k} that splits off the block of the smallest point,
so no route enumerates partitions.  When the argument is symmetric they
collapse, by the exponential formula, to the collected chain: for a tensor
power of one normal class u the partition sum is k! E_k, E_n the
coefficients of exp(sum_i (-1)^(i-1) b_i t^i / i), b_i the pushforward of
e^(i-1) * u^i.  For a multiplicative class K the genus of the k-tuple
point manifold is the integral of K(target) * E_k with u = K(normal)^-1;
the collected routes pair the L-class with it, and ``formulas`` reads the
characteristic numbers from genera at integer points; Herbert's closed
form shares only ring products with the chain.  Everything is exact
rational arithmetic; agreement checks are equalities, not tolerances.
"""

from __future__ import annotations

from fractions import Fraction
from functools import wraps
from math import factorial
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from .graded import (Coords, GradedAlgebraError, GradedClass, Scalar, TensorClass, _divide, exact,
                     log_coefficient)
from .model import ImmersionModel, ModelError
from .records import Record, _shown


class RouteDisagreement(ArithmeticError):
    """Two routes that must agree exactly produced different values."""


class PreconditionError(ModelError):
    """A closed form was invoked outside its hypothesis."""


class MultipointResult(Record):
    """One computed multiple-point quantity, with bookkeeping for reports."""

    __slots__ = ("k", "kind", "value", "dimension", "warnings")

    def __init__(self, k: int, kind: str, value: object, dimension: Optional[int] = None,
                 warnings: Optional[List[str]] = None):
        self.k = k
        self.kind = kind
        self.value = value  # Fraction or GradedClass
        self.dimension = dimension
        self.warnings = [] if warnings is None else warnings


# ---------------------------------------------------------------------------
# Entry checks: one per parameter name, run by @_checked before the body
# ---------------------------------------------------------------------------


def _model(model: object) -> None:
    if not isinstance(model, ImmersionModel):
        raise ModelError(f"model must be an ImmersionModel, got {_shown(model)}")


def _k(k: object) -> None:
    # a bool, float, Fraction or string is refused, not truncated
    if type(k) is not int:
        raise ValueError(f"multiplicity k must be an int, got {_shown(k)}")
    if k < 1:
        raise ValueError(f"multiplicity k must be at least 1, got {_shown(k)}")


def _J(J: object) -> None:
    if not isinstance(J, (list, tuple)):
        raise GradedAlgebraError(f"index sequence {_shown(J)} is not a sequence of integers")
    for j in J:
        if type(j) is not int or j < 0 or j % 2:
            raise GradedAlgebraError(f"index sequence entry {_shown(j)} is not a nonnegative even integer")


def _tensor(x: object, model: ImmersionModel, k: int) -> None:
    if not (isinstance(x, TensorClass) and x.arity == k
            and (x.ring is model.source or x.ring == model.source)):
        raise GradedAlgebraError(f"x must be an arity-{k} TensorClass on the source ring")


def _route_name(route: object) -> None:
    if not isinstance(route, str) or (route != "auto" and route not in SIGNATURE_ROUTES):
        raise ValueError(f"unknown signature route {_shown(route)}")


def _quantity(quantity: object) -> None:
    if not isinstance(quantity, str) or quantity not in QUANTITIES:
        raise ValueError(f"unknown quantity {_shown(quantity)}; expected one of {', '.join(QUANTITIES)}")


def _chern(chern: object) -> None:
    if type(chern) is not bool:
        raise ValueError(f"chern must be a bool, got {_shown(chern)}")


def _log_coeffs(log_coeffs: object) -> None:
    if not isinstance(log_coeffs, (list, tuple)):
        raise GradedAlgebraError(f"log_coeffs must be a list or tuple of rationals, got {_shown(log_coeffs)}")
    for c in log_coeffs:
        exact(c)


# a check's parameters after the first name the arguments it also reads
_ENTRY_CHECKS = {
    "model": _model, "k": _k, "J": _J, "route": _route_name, "quantity": _quantity,
    "chern": _chern, "log_coeffs": _log_coeffs, "x": _tensor,
}
_REQUIRED = object()


def _checked(fn: Callable) -> Callable:
    """fn, running the entry check of each of its parameters that
    _ENTRY_CHECKS names, in parameter order, before its body.  An argument
    left at fn's own default is not checked, so None passes where fn's
    default is None.  The positions are read from fn once, here, so a call
    indexes args and builds no dict."""
    def params(f: Callable) -> Tuple[str, ...]:
        return f.__code__.co_varnames[:f.__code__.co_argcount]

    names = params(fn)
    defaults = ((_REQUIRED,) * len(names) + (fn.__defaults__ or ()))[-len(names):]
    spec = {n: (i, n, d) for i, (n, d) in enumerate(zip(names, defaults))}
    plan = [(*spec[n], check, tuple(spec[r] for r in params(check)[1:]))
            for n in names if (check := _ENTRY_CHECKS.get(n))]

    @wraps(fn)
    def checked(*args, **kwargs):
        n = len(args)
        for i, name, default, check, reads in plan:
            value = args[i] if i < n else kwargs.get(name, default)
            if value is default:
                if value is _REQUIRED:
                    break  # fn names the missing argument
                continue
            if reads:
                check(value, *[args[j] if j < n else kwargs.get(r, d) for j, r, d in reads])
            else:
                check(value)
        return fn(*args, **kwargs)
    return checked


@_checked
def multiple_point_dimension(model: ImmersionModel, k: int) -> Tuple[int, ...]:
    """Expected dimension of the k-tuple point manifold, per source component."""
    return tuple(sorted({c.top_degree - (k - 1) * model.codim
                         for c in model.source.components}))


def _empty_locus(model: ImmersionModel, k: int) -> bool:
    """Whether the k-tuple point manifold is empty: (k-1)*codim exceeds the
    dimension of every source component."""
    bound = (k - 1) * model.codim
    for c in model.source.components:
        if c.top_degree >= bound:
            return False
    return True


def _no_signature_dimension(model: ImmersionModel, k: int) -> bool:
    """Whether no k-tuple dimension is a nonnegative multiple of 4 (an
    empty manifold has none): every L-class of a valid model has degrees
    0 mod 4, so the signature pairing cannot reach the top degree."""
    bound = (k - 1) * model.codim
    for c in model.source.components:
        if c.top_degree >= bound and (c.top_degree - bound) % 4 == 0:
            return False
    return True


@_checked
def zero_warning(model: ImmersionModel, k: int) -> Optional[str]:
    """The first reason the value at k is 0 before any kernel runs, or None:
    the k-tuple point manifold is empty; else, on a model that passed
    validate (read from the zero facts it memoised on the model),
    f*f_!(x) = e * x at k >= 2, or f_! = 0 at k >= 1.  One reason covers
    every number and the virtual class alike."""
    if _empty_locus(model, k):
        return (f"the {_shown(k, str)}-tuple point manifold is empty: (k-1)*codim = "
                f"{_shown((k - 1) * model.codim, str)} exceeds the source dimension(s) "
                f"{_shown(multiple_point_dimension.__wrapped__(model, 1), str)}; the value is 0")
    facts = model._cache.get("zero facts")
    if facts is None:
        return None
    embedding, null_pushforward = facts
    if k > 1 and embedding:
        return ("f*f_!(x) = e*x, as for an embedding: there are no k-tuple points for "
                "k >= 2; the value is 0")
    if null_pushforward:
        return ("f_! = 0: every pushed class is 0, and so is every integral over the source "
                "(integration compatibility); the value is 0")
    return None


# ---------------------------------------------------------------------------
# The transfer kernel (restriction to the k-tuple locus, pushed to the
# source or the target)
# ---------------------------------------------------------------------------


def _transfer(model: ImmersionModel, factors: Sequence[GradedClass],
              to_target: bool) -> GradedClass:
    """Transfer of the elementary tensor c_1 x ... x c_k of source classes.

    The sum, over the partitions of {1,...,k}, of the products of the block
    terms l(|B|) * img(B): l(|B|) is the log coefficient and img(B) the
    image of the block class e^(|B|-1) * prod_{i in B} c_i, its pushforward
    on the target and pullback(pushforward(.)) on the source, where the
    block containing 1 is kept as it is.  Splitting off the block of the
    smallest point gives the subset recursion

        T(S) = sum over the B in S that contain min S of term(B) * T(S - B),

    with T of the empty set the unit and T({1,...,k}) the transfer.  Subsets
    are bit masks, and every block class, term and T(S) is a coordinate dict
    built at most once: a call takes at most 2^k - 2 ring products for the
    block classes and (3^(k-1) - 1)/2 for the recursion, visits no
    partition, and builds one GradedClass, the result.

    Degree pruning.  In a valid model the Euler class has degree codim, the
    pushforward raises degrees by codim, the pullback keeps them and
    products add them.  With w(S) = |S| * codim plus the lowest degrees of
    the c_i, i in S, a mapped block and a T(S) have degree at least w(S),
    so every partition term has degree at least w({1,...,k}), less codim on
    the source (whose block of 1 is unmapped).  Above the top degree of the
    result's ring (on the source: (k-1) * codim above it, an empty k-tuple
    manifold) the transfer is zero before any product or map call.  Else
    the slack is the room left under the top degree: every block, c_i * e
    and T(S) keeps only its coordinates within the slack of its bound, a
    block to be pushed forward only those whose image has a target degree,
    and an empty block is neither mapped nor grown.  No product is taken
    with a zero factor.
    """
    source = model.source
    ring = model.target if to_target else source
    if not all(c.coords for c in factors):
        return ring.zero()
    k, codim = len(factors), model.codim
    sdeg, rdeg = source.degrees, ring.degrees
    low = [min(map(sdeg.__getitem__, c.coords)) for c in factors]
    # w({1,...,k}) is a plain sum, so the empty case costs no 2^k table
    slack = ring.max_degree - k * codim - sum(low) + (0 if to_target else codim)
    if slack < 0:  # every partition term lies above the top degree
        return ring.zero()
    full = (1 << k) - 1
    w = [0] * (full + 1)  # w[S], the degree bound of a mapped block or T(S)
    for b in range(1, full + 1):
        top = b.bit_length() - 1
        w[b] = w[b ^ (1 << top)] + codim + low[top]

    def within(coords: Coords, cap: int) -> Coords:
        return {i: v for i, v in coords.items() if sdeg[i] <= cap}

    mul = source.mul_coords
    push, pull = model.pushforward.apply_coords, model.pullback.apply_coords
    reach = model.target.max_degree - codim  # blocks above it push forward to zero
    # c_i * e for i >= 2: the point 1 is never the largest of a block of two or more
    times_e: List[Optional[Coords]] = [None] * k
    if model.euler.coords:
        for t in range(1, k):
            cls = mul(within(factors[t].coords, low[t] + slack), model.euler.coords)
            times_e[t] = within(cls, low[t] + codim + slack) or None

    blocks: List[Optional[Coords]] = [None] * (full + 1)
    terms: List[Optional[Coords]] = [None] * (full + 1)
    for b in range(1, full + 1):
        top = b.bit_length() - 1
        rest = b ^ (1 << top)
        mapped = to_target or not b & 1
        cap = min(w[b] - codim + slack, reach) if mapped else w[b] - codim + slack
        if not rest:
            cls = within(factors[top].coords, cap)
        elif blocks[rest] is not None and times_e[top] is not None:
            cls = within(mul(blocks[rest], times_e[top]), cap)
        else:
            continue
        if not cls:
            continue
        blocks[b] = cls
        if mapped:
            cls = push(cls)
            if cls and not to_target:
                cls = pull(cls)
            if not cls:
                continue
        weight = log_coefficient(b.bit_count())
        terms[b] = cls if weight == 1 else {i: weight * v for i, v in cls.items()}

    # T(S) for every S without the point 1 (the even masks, each after its
    # subsets), then for the full set; the B = S term needs no product
    T: List[Optional[Coords]] = [None] * (full + 1)
    mul = ring.mul_coords
    for S in (*range(2, full, 2), full):
        cap = w[S] + slack
        rest = S & (S - 1)
        acc = dict(terms[S] or ())
        sub = rest
        while sub:
            term, t = terms[S ^ sub], T[sub]
            if term is not None and t is not None:
                for i, v in mul(term, t).items():
                    if rdeg[i] <= cap:
                        acc[i] = acc.get(i, 0) + v
            sub = (sub - 1) & rest
        T[S] = {i: v for i, v in acc.items() if v} or None
    return GradedClass(ring, T[full] or {})


def _pushed_normal_power(model: ImmersionModel, k: int) -> GradedClass:
    """The transfer of L(normal)^-1 x ... x L(normal)^-1 (k factors) pushed
    to the target, which the via-N route pairs and the virtual class checks
    against: memoised per model and k, beside the collected chain."""
    return model._cached(("via-N", k), lambda: _transfer(
        model, [model.l_normal_inverse] * k, to_target=True))


# ---------------------------------------------------------------------------
# The collected chain (the exponential coefficients of the normal blocks,
# and the genus of the k-tuple point manifold read from them)
# ---------------------------------------------------------------------------


class _Chain:
    """The memo of one collected recursion on the target: e * u, the chain
    class e^(n-1) * u^n of the last block, the blocks b_1..b_n, E_0..E_n
    and the source classes F_0..F_m read so far, F_n = f*(E_n), all
    coordinate dicts."""

    __slots__ = ("eu", "last", "blocks", "coeffs", "pulled")

    def __init__(self, model: ImmersionModel, u: Coords):
        self.eu = model.source.mul_coords(model.euler.coords, u)
        self.last = u
        self.blocks: List[Coords] = []
        self.coeffs: List[Coords] = [model.target.unit_coords]
        self.pulled: List[Coords] = []


def _exponential_coefficients(model: ImmersionModel, u: GradedClass, k: int) -> _Chain:
    """The memo holding E_0..E_k, the coefficients of
    exp(sum_i (-1)^(i-1) b_i t^i / i) for the blocks
    b_i = f_!(e^(i-1) * u^i) on the target, u a normal class.

    By the exponential formula, n! * E_n is the sum over the partitions of
    n points of the products of the block classes b_|B|, each weighted by
    the log coefficient of |B|.  Differentiating the exponential gives
    n * E_n = sum_{i=1..n} (-1)^(i-1) b_i E_{n-i}, so E_k costs O(k^2)
    ring products and no partition or type vector is visited.  The
    coefficients of the pulled-back blocks are f*(E_n), f* being a unital
    ring homomorphism, so the source side needs no recursion of its own.

    Everything is a coordinate dict, and the recursion is memoised in the
    model's cache under u: a call for a larger k extends the chain, the
    blocks and the coefficients, and a call for a smaller k reads them.
    The returned memo holds at least E_0..E_k; callers must not mutate it
    except to extend its pulled list.
    """
    memo = model._cached(("collected", u), lambda: _Chain(model, u.coords))
    _extend(model, memo, k)
    return memo


def _extend(model: ImmersionModel, chain: _Chain, k: int) -> None:
    """Extend the chain's blocks and coefficients up to E_k."""
    blocks, coeffs = chain.blocks, chain.coeffs
    push, mul = model.pushforward.apply_coords, model.target.mul_coords
    for n in range(len(coeffs), k + 1):
        if n > 1 and chain.last:
            chain.last = model.source.mul_coords(chain.last, chain.eu)
        blocks.append(chain.last and push(chain.last))
        acc = _sum_coords((1 if i % 2 else -1, mul(blocks[i - 1], coeffs[n - i]))
                          for i in range(1, n + 1) if blocks[i - 1] and coeffs[n - i])
        coeffs.append({i: _divide(v, n) for i, v in acc.items()})


def _sum_coords(terms: Iterable[Tuple[Scalar, Coords]]) -> Coords:
    """sum c * x over the (c, x) of terms, with no zero entries."""
    acc: Coords = {}
    for c, coords in terms:
        for i, v in coords.items():
            acc[i] = acc.get(i, 0) + c * v
    return {i: v for i, v in acc.items() if v}


def _pairing(a: GradedClass, b: Coords) -> Fraction:
    """The integral of a * b, for b a coordinate dict on a's ring."""
    return a.ring.integrate_coords(a.ring.mul_coords(a.coords, b))


def _genus(model: ImmersionModel, k: int, target_class: GradedClass,
           u: GradedClass) -> Fraction:
    """The integral of K(target) * E_k, E_k the collected chain's
    coefficient on the target for the normal class u = K(normal)^-1."""
    return _pairing(target_class, _exponential_coefficients(model, u, k).coeffs[k])


# ---------------------------------------------------------------------------
# Signature routes, and Herbert's closed form
# ---------------------------------------------------------------------------


def _herbert_refusal(model: ImmersionModel, l_normal: bool = True) -> Optional[str]:
    """Why Herbert's closed form fails on the model, or None.  It holds where
    f*f_! = 0 (read first: such a model solves no linear system) or where e
    and, with l_normal, L(normal)^-1 are pulled back: every block then pulls
    out of the pushforward, and the transfer of pulled-back u_1..u_k is
    u_1 * ... * u_k * m_k, Herbert's class m_k = prod_{i<k} (f*f_!(1) - i*e)."""
    if model.null_pushpull:
        return None
    if model.euler_preimage is None:
        return f"f*f_! is not zero and euler class {model.euler} is not pulled back from the target"
    if l_normal and model.l_normal_inverse_preimage is None:
        return "f*f_! is not zero and L(normal) is not pulled back from the target"
    return None


class _Herbert:
    """The memo of Herbert's closed form: f*f_!(1), the powers u^0..u^n of
    u = L(normal)^-1 and the classes m_1..m_n, all source coordinate dicts."""

    __slots__ = ("base", "powers", "units")

    def __init__(self, model: ImmersionModel):
        unit = model.source.unit_coords
        self.base = model.pullback.apply_coords(model.pushforward.apply_coords(unit))
        self.powers, self.units = [unit], [unit]


def _closed_form(model: ImmersionModel, k: int, power: int) -> Coords:
    """u^power * m_k, from the model's memo, extended by one product per
    class and per power; callers check _herbert_refusal and mutate nothing."""
    memo = model._cached("herbert", lambda: _Herbert(model))
    powers, units, mul = memo.powers, memo.units, model.source.mul_coords
    while len(powers) <= power:
        powers.append(mul(powers[-1], model.l_normal_inverse.coords))
    while len(units) < k:
        step = _sum_coords([(1, memo.base), (-len(units), model.euler.coords)])
        units.append(mul(units[-1], step))
    return mul(powers[power], units[k - 1]) if power else units[k - 1]


@_checked
def signature_via_source(model: ImmersionModel, k: int) -> Fraction:
    """Signature of the k-tuple point manifold, evaluated on the source:
    transfer of L(source) x L(normal)^{-1} x ... x L(normal)^{-1}."""
    if _empty_locus(model, k):
        return Fraction(0)
    factors = [model.l_source] + [model.l_normal_inverse] * (k - 1)
    value = _transfer(model, factors, to_target=False).integrate()
    return value / factorial(k)


@_checked
def signature_via_target(model: ImmersionModel, k: int) -> Fraction:
    """Same signature, evaluated on the target: pair L(target) with the
    full pushforward transfer of the tensor power of L(normal)^{-1}."""
    if _empty_locus(model, k):
        return Fraction(0)
    return (model.l_target * _pushed_normal_power(model, k)).integrate() / factorial(k)


@_checked
def signature_collected(model: ImmersionModel, k: int) -> Fraction:
    """Collected form: L(target) paired with E_k of the pushed normal
    blocks, the partition sum collected by the exponential formula."""
    if _empty_locus(model, k):
        return Fraction(0)
    return _genus(model, k, model.l_target, model.l_normal_inverse)


@_checked
def signature_collected_source(model: ImmersionModel, k: int) -> Fraction:
    """Collected form on the source, where the block containing the first
    point is marked and keeps its Euler-power weight.

    With F_n = f*(E_n) the exponential coefficients of the pulled-back
    blocks, this is (1/k) sum_{l=1..k} (-1)^(l-1) <L(source) (e u)^(l-1)
    F_{k-l}>, u the inverse normal L-class; the sum over l is evaluated by
    Horner's rule.  The F_n are pulled back from the target chain once
    each and kept on it.
    """
    if _empty_locus(model, k):
        return Fraction(0)
    chain = _exponential_coefficients(model, model.l_normal_inverse, k - 1)
    pulled = chain.pulled
    pulled.extend(map(model.pullback.apply_coords, chain.coeffs[len(pulled):k]))
    mul = model.source.mul_coords
    acc = pulled[0]
    for f in pulled[1:k]:
        acc = _sum_coords([(1, f), (-1, mul(chain.eu, acc))])
    return _pairing(model.l_source, acc) / k


@_checked
def signature_herbert(model: ImmersionModel, k: int) -> Fraction:
    """Herbert's closed form: the integral of L(source) * L(normal)^-(k-1)
    * m_k over k!, with no chain, transfer or partition; refused, on an
    empty k-tuple manifold too, where _herbert_refusal names a reason."""
    if (why := _herbert_refusal(model)) is not None:
        raise PreconditionError(why)
    if _empty_locus(model, k):
        return Fraction(0)
    return _pairing(model.l_source, _closed_form(model, k, k - 1)) / factorial(k)


SIGNATURE_ROUTES = {
    "general": signature_via_source,
    "via-N": signature_via_target,
    "collected": signature_collected,
    "collected-source": signature_collected_source,
    "herbert": signature_herbert,
}


@_checked
def signature(model: ImmersionModel, k: int, route: str = "auto") -> Fraction:
    """Signature of the k-tuple point manifold, 0 before any route runs
    when no k-tuple dimension is 0 mod 4 (_no_signature_dimension).

    route 'auto' returns 0 before any route runs when zero_warning names a
    reason; else it runs one route of each of two independent kernels, the
    collected chain on the target and, on the source, Herbert's closed form
    where its hypothesis holds, else the subset kernel of general
    (3^(k-1)/2 products), and insists on exact agreement.  A named route
    always runs.
    """
    if _no_signature_dimension(model, k):
        return Fraction(0)
    if route in SIGNATURE_ROUTES:
        return SIGNATURE_ROUTES[route](model, k)
    if zero_warning.__wrapped__(model, k) is not None:
        return Fraction(0)
    other = "herbert" if _herbert_refusal(model) is None else "general"
    value, check = SIGNATURE_ROUTES["collected"](model, k), SIGNATURE_ROUTES[other](model, k)
    if value != check:
        raise RouteDisagreement(
            f"signature routes disagree for k={k}: collected={value}, {other}={check}")
    return value


# ---------------------------------------------------------------------------
# The virtual signature class
# ---------------------------------------------------------------------------


@_checked
def virtual_signature_class(model: ImmersionModel, k: int) -> GradedClass:
    """The target class whose pairing with L(target)/k! is the signature:
    k! E_k of the model's collected chain for u = L(normal)^-1, checked
    where Herbert's hypothesis holds against f_!(u^k * m_k), from the
    herbert route's memo, else against the subset kernel's pushed tensor
    power of u, which via-N shares; 0 at once when zero_warning names a
    reason (on an empty k-tuple manifold, before it builds the text)."""
    target = model.target
    if _empty_locus(model, k) or zero_warning.__wrapped__(model, k) is not None:
        return target.zero()
    coeffs = _exponential_coefficients(model, model.l_normal_inverse, k).coeffs[k]
    collected = GradedClass(target, {i: factorial(k) * v for i, v in coeffs.items()})
    if _herbert_refusal(model) is None:
        other = GradedClass(target, model.pushforward.apply_coords(_closed_form(model, k, k)))
    else:
        other = _pushed_normal_power(model, k)
    if collected != other:
        raise RouteDisagreement(
            f"virtual signature class mismatch for k={k}: collected {collected} vs {other}")
    return collected


# quantity -> (the routes a caller can name, "auto" among them, whether it reads J)
QUANTITIES = {"signature": ((*SIGNATURE_ROUTES, "auto"), False), "bk": (("auto",), False),
              "pontrjagin": (("auto",), True), "chern": (("auto",), True)}


@_checked
def evaluate(model: ImmersionModel, k: int, quantity: str, J: Optional[Sequence[int]] = None,
             route: str = "auto") -> MultipointResult:
    """The quantity at k as one record, with the route and J that QUANTITIES
    allows it.  signature and virtual_signature_class build no record."""
    routes, reads_J = QUANTITIES[quantity]
    if route not in routes or reads_J != (J is not None):
        raise ValueError(f"{quantity} takes {'an' if reads_J else 'no'} index sequence J "
                         f"and one of the routes {', '.join(routes)}")
    if reads_J:
        from . import formulas  # a signature or bk query compiles none of it
        return formulas._characteristic_number(model, k, J, chern=quantity == "chern")
    value = (signature.__wrapped__(model, k, route) if quantity == "signature"
             else virtual_signature_class.__wrapped__(model, k))
    dims, why = multiple_point_dimension.__wrapped__(model, k), zero_warning.__wrapped__(model, k)
    if why is None and quantity == "signature" and _no_signature_dimension(model, k):
        why = (f"no k-tuple dimension in {_shown(dims, str)} is a nonnegative multiple of 4; "
               "the pairing vanishes")
    return MultipointResult(k, quantity, value, dims[0] if len(dims) == 1 else None,
                            [] if why is None else [why])
