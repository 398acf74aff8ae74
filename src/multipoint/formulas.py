"""Multiple-point formulas: transfer operators, signatures, characteristic
numbers, the virtual signature class, and the special-case evaluators.

Partition sums over an arbitrary tensor argument run as a recursion over
the subsets of {1,...,k} that splits off the block of the smallest point,
so no route enumerates partitions.  When the argument is symmetric they
collapse, by the exponential formula, to a recursion over the block sizes.
Everything is exact rational arithmetic; agreement checks are equalities,
not tolerances.
"""

from __future__ import annotations

from fractions import Fraction
from functools import wraps
from math import factorial
from typing import Callable, List, Optional, Sequence, Tuple

from .collected import (
    CHARACTERISTIC,
    Characteristic,
    _exponential_coefficients,
    _genus,
    _genus_classes,
    _genus_plan,
    _genus_point_count,
    _number_from_genera,
    _pairing,
    _sum_coords,
)
from .graded import (
    Coords,
    GradedAlgebraError,
    GradedClass,
    Scalar,
    TensorClass,
    cross,
    exact,
)
from .model import ImmersionModel, ModelError, disjoint_union, preimage_under
from .polynomials import log_coefficient
from .records import Record, _shown


class RouteDisagreement(ArithmeticError):
    """Two routes that must agree exactly produced different values."""


class PreconditionError(ModelError):
    """A special-case evaluator was invoked outside its hypothesis."""


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
        raise ModelError(f"model must be an ImmersionModel, got {model!r}")


def _models(models: object) -> None:
    if not (isinstance(models, (list, tuple)) and models
            and all(isinstance(m, ImmersionModel) for m in models)):
        raise ModelError(f"models must be a non-empty list or tuple of ImmersionModels, got {models!r}")


def _text(template: str, *values) -> str:
    """template % values, each value shown by _shown if str() refuses one."""
    try:
        return template % values
    except ValueError:
        return template % tuple(map(_shown, values))


def _k(k: object) -> None:
    # a bool, float, Fraction or string is refused, not truncated
    if type(k) is not int:
        raise ValueError(f"multiplicity k must be an int, got {k!r}")
    if k < 1:
        raise ValueError(f"multiplicity k must be at least 1, got {_shown(k)}")


def _J(J: object) -> None:
    if not isinstance(J, (list, tuple)):
        raise GradedAlgebraError(f"index sequence {J!r} is not a sequence of integers")
    for j in J:
        if type(j) is not int or j < 0 or j % 2:
            raise GradedAlgebraError(f"index sequence entry {j!r} is not a nonnegative even integer")


def _tensor(name: str, t: object, k: int, ring: object, side: str) -> None:
    if not (isinstance(t, TensorClass) and t.arity == k and (t.ring is ring or t.ring == ring)):
        raise GradedAlgebraError(f"{name} must be an arity-{k} TensorClass on the {side} ring")


def _route_name(route: object) -> None:
    if not isinstance(route, str) or (route != "auto" and route not in SIGNATURE_ROUTES):
        raise ValueError(f"unknown signature route {route!r}")


def _chern(chern: object) -> None:
    if type(chern) is not bool:
        raise ValueError(f"chern must be a bool, got {chern!r}")


def _log_coeffs(log_coeffs: object) -> None:
    if not isinstance(log_coeffs, (list, tuple)):
        raise GradedAlgebraError(f"log_coeffs must be a list or tuple of rationals, got {log_coeffs!r}")
    for c in log_coeffs:
        exact(c)


def _cap(cap: object, k: int) -> None:
    if type(cap) is not int:
        raise ValueError(f"oracle cap must be an int, got {cap!r}")
    if k > cap:
        raise ValueError(f"oracle refuses k={_shown(k)} beyond its cap {cap}")


# a check's parameters after the first name the arguments it also reads
_ENTRY_CHECKS = {
    "model": _model, "models": _models, "k": _k, "J": _J, "route": _route_name,
    "chern": _chern, "log_coeffs": _log_coeffs, "cap": _cap,
    "x": lambda x, model, k: _tensor("x", x, k, model.source, "source"),
    "y": lambda y, model, k: _tensor("y", y, k, model.target, "target"),
}
_REQUIRED = object()


def _checked(fn: Callable) -> Callable:
    """fn, running the entry check of each of its parameters that
    _ENTRY_CHECKS names, in parameter order, before its body.  fn's own
    default needs no check unless the check reads other arguments (the
    oracle's cap is checked against k), so None passes where fn's default
    is None.  The positions are read from fn once, here, so a call indexes
    args and builds no dict."""
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
                if not reads:
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


@_checked
def empty_locus_warning(model: ImmersionModel, k: int) -> Optional[str]:
    """The warning that the k-tuple point manifold is empty; None when it is
    not."""
    if not _empty_locus(model, k):
        return None
    return _text("the %s-tuple point manifold is empty: (k-1)*codim = %s exceeds the source "
                 "dimension(s) %s; the value is 0", k, (k - 1) * model.codim,
                 model.source_dimensions())


# ---------------------------------------------------------------------------
# The transfer operators (restriction to the k-tuple locus, pushed to the
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


def _transfer_tensor(model: ImmersionModel, k: int, x: TensorClass,
                     to_target: bool) -> GradedClass:
    out = (model.target if to_target else model.source).zero()
    for idx, coeff in x.terms.items():
        factors = [model.source.basis_class(i) for i in idx]
        out = out + coeff * _transfer(model, factors, to_target)
    return out


@_checked
def transfer_to_source(model: ImmersionModel, k: int, x: TensorClass) -> GradedClass:
    """Push the restriction of a class on the k-fold source power down to
    the source, by the solved partition-sum formula.

    Per partition, the block containing 1 contributes its factor product
    directly (weighted by a power of the Euler class); every other block
    passes through pullback(pushforward(.)).  Homogeneous of degree
    (k-1)*codim on elementary tensors.  Linear in x: each term, a tensor
    of basis classes, goes through the factorised kernel on its own.
    """
    return _transfer_tensor(model, k, x, to_target=False)


@_checked
def transfer_to_target(model: ImmersionModel, k: int, x: TensorClass) -> GradedClass:
    """Pushforward of the k-tuple restriction all the way to the target:
    every block contributes a pushed-forward factor."""
    return _transfer_tensor(model, k, x, to_target=True)


# ---------------------------------------------------------------------------
# Signature routes
# ---------------------------------------------------------------------------

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
    pushed = _transfer(model, [model.l_normal_inverse] * k, to_target=True)
    return (model.l_target * pushed).integrate() / factorial(k)


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


SIGNATURE_ROUTES = {
    "general": signature_via_source,
    "via-N": signature_via_target,
    "collected": signature_collected,
    "collected-source": signature_collected_source,
}


@_checked
def signature(model: ImmersionModel, k: int, route: str = "auto") -> Fraction:
    """Signature of the k-tuple point manifold, 0 before any route runs
    when none of its dimensions is 0 mod 4 (an empty one has none): every
    L-class of a valid model has degrees 0 mod 4, so the pairing cannot
    reach the top degree.

    route 'auto' evaluates every route and insists on exact agreement.
    """
    bound = (k - 1) * model.codim
    for c in model.source.components:
        if c.top_degree >= bound and (c.top_degree - bound) % 4 == 0:
            break
    else:
        return Fraction(0)
    if route in SIGNATURE_ROUTES:
        return SIGNATURE_ROUTES[route](model, k)
    values = {name: fn(model, k) for name, fn in SIGNATURE_ROUTES.items()}
    distinct = set(values.values())
    if len(distinct) != 1:
        detail = ", ".join(f"{name}={value}" for name, value in values.items())
        raise RouteDisagreement(f"signature routes disagree for k={k}: {detail}")
    return distinct.pop()


# ---------------------------------------------------------------------------
# Characteristic numbers
# ---------------------------------------------------------------------------


@_checked
def genus(model: ImmersionModel, k: int, log_coeffs: Sequence[Scalar],
          chern: bool = False) -> Fraction:
    """The genus of the k-tuple point manifold for the multiplicative class
    K with log K = sum_j c_j s_j, s_j the power sums of the squared
    Pontrjagin roots (of the Chern roots if chern is set) and c_j the
    entries of log_coeffs (c_0 is not read; entries past the end are 0);
    0 on an empty k-tuple point manifold.

    The model defines the normal class as f*(P(target)) * P(source)^-1
    (likewise C) and K is multiplicative, so the genus is the integral of
    K(target) * E_k with u = K(normal)^-1, as the collected signature
    route pairs L(target) with it.  The classes are memoised per model.
    """
    if _empty_locus(model, k):
        return Fraction(0)
    return _genus(model, k, *_genus_classes(model, CHARACTERISTIC[chern], log_coeffs))


def _number_by_expansion(model: ImmersionModel, k: int, J: Sequence[int],
                         kind: Characteristic) -> Fraction:
    """The transfer of the degree-J part of the expanded tensor
    C x C(normal)^-1 x ... x C(normal)^-1, C the source's total
    Pontrjagin (or Chern) class: n^k tensor terms for n source classes."""
    total, _, normal = kind.classes(model)
    x = cross([total] + [normal.invert_unital()] * (k - 1)).select_degrees(J)
    return transfer_to_source(model, k, x).integrate() / factorial(k)


def _characteristic_number(model: ImmersionModel, k: int, J: Sequence[int],
                           chern: bool) -> MultipointResult:
    """The number, or 0 before any class is built when the degrees alone
    decide it: with a warning when sum(J) is not a k-tuple dimension or
    the manifold is empty, without one when a j is not a multiple of the
    degree step of the classes.

    Otherwise _number_from_genera and _number_by_expansion both give it
    exactly, and the one with the smaller estimated cost runs, counted in
    products of two coordinates: (k + 1)^2 products of classes of n
    coordinates per genus point, so (k + 1)^2 * n^2, against 3^(k-1)
    products of basis classes per tensor term, of which there are at most
    n^k for n source classes.  The expansion runs where n^k is small and
    the genera where the weight is: a large k leaves the k-tuple manifold
    a small dimension.
    """
    kind = CHARACTERISTIC[chern]
    warnings: List[str] = []
    # the arguments are checked: __wrapped__ runs no entry check again
    dims = multiple_point_dimension.__wrapped__(model, k)
    if sum(J) not in dims:
        warnings.append(_text("degree sum %s does not match the k-tuple dimension(s) %s; "
                              "the pairing vanishes", sum(J), dims))
    empty = empty_locus_warning.__wrapped__(model, k)
    if empty is not None:
        warnings.append(empty)
    value = Fraction(0)
    # a part of a Pontrjagin class has degree 0 mod 4, so any other j selects 0
    if not warnings and all(j % kind.step == 0 for j in J):
        plan = _genus_plan(J, kind, dims)
        n = len(model.source.labels)
        if n ** k * 3 ** (k - 1) < _genus_point_count(plan) * (k + 1) ** 2 * n * n:
            value = _number_by_expansion(model, k, J, kind)
        else:
            value = _number_from_genera(model, k, plan)
    return MultipointResult(k=k, kind=kind.name, value=value,
                            dimension=dims[0] if len(dims) == 1 else None,
                            warnings=warnings)


@_checked
def pontrjagin_number(model: ImmersionModel, k: int, J: Sequence[int]) -> MultipointResult:
    """Pontrjagin number of the k-tuple point manifold for the index
    sequence J (degrees of the selected graded parts): the integral of
    the product of the p_(j/4) of its tangent bundle.

    It is 0, with a warning, when sum(J) is not a k-tuple dimension or
    the manifold is empty, and 0 when some j is not a multiple of 4; no
    class is built then.  Otherwise it is computed by the cheaper of two
    exact routes (see _characteristic_number): read from genera, which
    is the signature alone when sum(J) <= 4 and the manifold has one
    dimension, or the transfer of the expanded tensor, at small k.
    """
    return _characteristic_number(model, k, J, chern=False)


@_checked
def chern_number(model: ImmersionModel, k: int, J: Sequence[int]) -> MultipointResult:
    """Chern number of the k-tuple point manifold for the index sequence J,
    computed as pontrjagin_number is, from the Chern roots (with no L
    point, and step 2 for 4); requires Chern data."""
    if model.chern_source is None or model.chern_target is None:
        raise ModelError("model carries no Chern data")
    return _characteristic_number(model, k, J, chern=True)


# ---------------------------------------------------------------------------
# The virtual signature class
# ---------------------------------------------------------------------------


@_checked
def virtual_signature_class(model: ImmersionModel, k: int) -> GradedClass:
    """The target class whose pairing with L(target)/k! is the signature:
    virtual_signature_class_union([model], k)."""
    return virtual_signature_class_union.__wrapped__([model], k)


@_checked
def virtual_signature_class_union(models: Sequence[ImmersionModel], k: int) -> GradedClass:
    """The virtual signature class of the disjoint union of the models, by
    a multinomial convolution of per-component classes.

    Sheets are distributed over the components in every way: the class is
    k! times the t^k coefficient of the product, over the components, of
    the series 1 + sum_i B_i t^i / i!, B_i the component's class for i
    sheets.  A component receiving no sheet contributes the empty factor 1,
    so that the k = 1 class stays additive over components.  B_i / i! is
    the component's E_i, read from its collected memo.  The result is
    checked once against the transfer kernel on the disjoint union, built
    first, which refuses components that do not share the target data and
    codimension; on an empty k-tuple manifold the class is 0 at once.
    """
    union = disjoint_union(models)
    target = union.target
    if _empty_locus(union, k):
        return target.zero()
    mul = target.mul_coords
    product, *others = [_exponential_coefficients(m, m.l_normal_inverse, k).coeffs
                        for m in models]
    for series in others:
        product = [_sum_coords((1, mul(product[j], series[n - j]))
                               for j in range(n + 1) if product[j] and series[n - j])
                   for n in range(k + 1)]
    collected = GradedClass(target, {i: factorial(k) * v for i, v in product[k].items()})
    enumerated = _transfer(union, [union.l_normal_inverse] * k, to_target=True)
    if collected != enumerated:
        raise RouteDisagreement(
            f"virtual signature class mismatch for k={k} on the union: "
            f"collected {collected} vs enumerated {enumerated}")
    return collected


# ---------------------------------------------------------------------------
# Special-case evaluators of the signature (J None) or p_J: after the
# entry check and the hypothesis, 0 on an empty k-tuple point manifold
# ---------------------------------------------------------------------------


@_checked
def transfer_of_unit(model: ImmersionModel, k: int) -> GradedClass:
    """Closed form of the transfer of the unit tensor:
    prod_{i=1}^{k-1} (pullback(pushforward(1)) - i*euler).

    Valid whenever the Euler class lies in the image of the pullback.
    """
    if _empty_locus(model, k):
        return model.source.zero()
    base = model.pushpull(model.source.unit())
    out = model.source.unit()
    for i in range(1, k):
        out = out * (base - i * model.euler)
    return out


def _require(condition: bool, witness: str) -> None:
    if not condition:
        raise PreconditionError(witness)


def _require_pulled_from_target(model: ImmersionModel) -> None:
    _require(preimage_under(model.pullback, model.euler) is not None,
             f"euler class {model.euler} is not pulled back from the target")
    _require(preimage_under(model.pullback, model.l_normal) is not None,
             "L(normal) is not pulled back from the target")


@_checked
def pulled_from_target_class(model: ImmersionModel, k: int, y: TensorClass) -> GradedClass:
    """Transfer of a class pulled back from the k-fold target power:
    the product of the slotwise pullbacks times the closed-form unit
    transfer.  Requires euler and L(normal) to come from the target.
    """
    _require_pulled_from_target(model)
    out = model.source.zero()
    for idx, coeff in y.terms.items():
        cls = model.source.unit()
        for j in idx:
            cls = cls * model.pullback(model.target.basis_class(j))
        out = out + coeff * cls
    return out * transfer_of_unit.__wrapped__(model, k)


def _core(model: ImmersionModel, k: int, J: Optional[Sequence[int]]) -> GradedClass:
    """The source class the number pairs: L(source) * L(normal)^-(k-1) for
    the signature (J None), else the degree-J part of
    P(source) * P(normal)^-(k-1)."""
    if J is None:
        return model.l_source * model.l_normal_inverse ** (k - 1)
    inv = model.normal_pontrjagin.invert_unital()
    return (model.pontrjagin_source * inv ** (k - 1)).select_degrees(J)


@_checked
def pulled_from_target(model: ImmersionModel, k: int,
                       J: Optional[Sequence[int]] = None) -> Fraction:
    """The signature or p_J when euler and L(normal) come from the target:
    the core paired with the closed-form unit transfer, over k!."""
    _require_pulled_from_target(model)
    if _empty_locus(model, k):
        return Fraction(0)
    return (_core(model, k, J) * transfer_of_unit.__wrapped__(model, k)).integrate() / factorial(k)


@_checked
def euler_zero(model: ImmersionModel, k: int) -> Fraction:
    """Signature when the normal Euler class vanishes: only the finest
    partition survives, leaving a k-th power of the pushed normal class
    on the target."""
    _require(model.euler.is_zero(), f"euler class {model.euler} is nonzero")
    if _empty_locus(model, k):
        return Fraction(0)
    pushed = model.pushforward(model.l_normal_inverse)
    return (model.l_target * pushed ** k).integrate() / factorial(k)


@_checked
def pushpull_zero(model: ImmersionModel, k: int, J: Optional[Sequence[int]] = None) -> Fraction:
    """The signature or p_J when pullback(pushforward(.)) vanishes
    identically: only the one-block partition survives, leaving
    (-1)^(k-1) / k times the integral of euler^(k-1) * core."""
    _require(all(model.pushpull(model.source.basis_class(i)).is_zero()
                 for i in range(len(model.source.labels))),
             "pullback(pushforward(.)) is not identically zero")
    if _empty_locus(model, k):
        return Fraction(0)
    return Fraction((-1) ** (k - 1), k) * (model.euler ** (k - 1) * _core(model, k, J)).integrate()


@_checked
def nullhomotopic(model: ImmersionModel, k: int, J: Optional[Sequence[int]] = None) -> Fraction:
    """The signature or p_J in the nullhomotopic normalization
    P(normal)^-1 = P(source), which gives L(normal)^-1 = L(source) (every
    log coefficient of L is nonzero), so the pushpull-zero formula becomes
    a pure Euler-power formula."""
    _require(model.normal_pontrjagin.invert_unital() == model.pontrjagin_source,
             "P(normal)^(-1) differs from P(source)")
    # the arguments are checked: __wrapped__ runs no entry check again
    return pushpull_zero.__wrapped__(model, k, J)
