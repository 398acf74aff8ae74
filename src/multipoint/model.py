"""Cohomological data of a generic even-codimension immersion.

A model bundles the source and target rings, the pullback and pushforward
maps, the normal Euler class and the total Pontrjagin (optionally Chern)
classes.  Normal-bundle characteristic classes are always derived from the
source/target data, never user-supplied.  Models need not come from an
actual immersion; validation checks exactly the hypotheses the multiple
point formulas use.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import Dict, Iterator, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from .graded import (
    Coords,
    GradedAlgebraError,
    GradedClass,
    GradedRing,
    Scalar,
    _divide,
    basis_indices,
    clean_coords,
    combine_rows,
    genus_class,
    mapping_items,
    power_sum_coords,
    signature_genus_log_coeffs,
)
from .records import Frozen, FrozenRecord, _shown


class ModelError(ValueError):
    pass


# The L-class of a total Pontrjagin class whose power sums reach degree d
# needs the log series of the L-genus to order d/4; validation refuses
# power sums above this degree (order 64 of the series).
MAX_CLASS_DEGREE = 256


class LinearMap(FrozenRecord):
    """Linear map between graded rings, given by the codomain coordinates of
    the images of basis elements; an image may be empty.  The degree it
    raises by is its model's: 0 for the pullback, codim for the pushforward."""

    __slots__ = ("domain", "codomain", "images")

    def __init__(self, domain: GradedRing, codomain: GradedRing,
                 images: Mapping[int, Mapping[int, object]]):
        items = mapping_items(images, "map domain index -> image")
        basis_indices(list(images), len(domain.labels), "map domain index")
        n = len(codomain.labels)
        cleaned = {}
        for i, img in items:
            if not isinstance(img, Mapping):
                raise GradedAlgebraError(f"image of basis index {i} is a {type(img).__name__}, "
                                         "not a mapping of index -> rational")
            cleaned[i] = clean_coords(img, n, "coordinate index")
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "codomain", codomain)
        object.__setattr__(self, "images", cleaned)

    def __call__(self, cls: GradedClass) -> GradedClass:
        if cls.ring is not self.domain and cls.ring != self.domain:
            raise ModelError("class is not in the domain of the map")
        return GradedClass(self.codomain, self.apply_coords(cls.coords))

    def apply_coords(self, coords: Mapping[int, Scalar]) -> Coords:
        """The image of a domain coordinate dict, as codomain coordinates
        with no zero entries."""
        out: Coords = {}
        for i, c in coords.items():
            img = self.images.get(i)
            if img:
                for j, v in img.items():
                    out[j] = out.get(j, 0) + c * v
        return {j: c for j, c in out.items() if c}

    @classmethod
    def from_coords(cls, domain: GradedRing, codomain: GradedRing,
                    images: Mapping[int, Mapping[int, object]], *,
                    degree_shift: object = None) -> "LinearMap":
        """The constructor, by its earlier name.  degree_shift is not read (a
        map holds no shift); it stays for callers written when one did."""
        return cls(domain, codomain, images)

    def respects_degrees(self, shift: int) -> List[str]:
        """The terms of images off their basis element's degree plus shift."""
        return [f"image of {self.domain.labels[i]} has a term of degree "
                f"{self.codomain.degrees[j]}, expected {self.domain.degrees[i] + shift}"
                for i, img in self.images.items() for j in img
                if self.codomain.degrees[j] != self.domain.degrees[i] + shift]


class Check(NamedTuple):
    name: str
    ok: bool
    detail: str = ""


class ValidationReport(FrozenRecord):
    """The checks of validate, in order."""

    __slots__ = ("checks",)

    def __init__(self, checks: Sequence[Check]):
        object.__setattr__(self, "checks", tuple(checks))

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self) -> List[Check]:
        return [c for c in self.checks if not c.ok]

    def __str__(self) -> str:
        lines = []
        for c in self.checks:
            status = "ok" if c.ok else "FAIL"
            lines.append(f"[{status}] {c.name}" + (f": {c.detail}" if c.detail and not c.ok else ""))
        return "\n".join(lines)


class ImmersionModel(Frozen):
    """The full cohomological datum of an even-codimension immersion.

    A model is a value: its fields are set once, here, and refused after,
    so what it memoises never goes stale: in _cache its derived classes,
    the validation report, the zero facts and the formulas' chains, and as
    attributes Herbert's hypotheses.  Nothing memoised refers back to the
    model, so a dropped model is freed at once, with no cyclic collection."""

    _cache: Dict[object, object]

    def __init__(
        self,
        source: GradedRing,
        target: GradedRing,
        pullback: LinearMap,
        pushforward: LinearMap,
        codim: int,
        euler: GradedClass,
        pontrjagin_source: GradedClass,
        pontrjagin_target: GradedClass,
        chern_source: Optional[GradedClass] = None,
        chern_target: Optional[GradedClass] = None,
        name: str = "",
    ):
        if type(codim) is not int or codim <= 0 or codim % 2:
            raise ModelError(f"codimension must be a positive even integer, got {_shown(codim)}")
        # each map and class on its ring, refused as the map call or the
        # class product that would meet it first
        if (pullback.domain, pushforward.domain) != (target, source) or any(
                c is not None and c.ring is not target and c.ring != target
                for c in (pontrjagin_target, chern_target)):
            raise ModelError("class is not in the domain of the map")
        if (pullback.codomain, pushforward.codomain) != (source, target) or any(
                c is not None and c.ring is not source and c.ring != source
                for c in (euler, pontrjagin_source, chern_source)):
            raise GradedAlgebraError("classes live in different rings")
        vars(self).update(
            source=source, target=target, pullback=pullback, pushforward=pushforward,
            codim=codim, euler=euler, pontrjagin_source=pontrjagin_source,
            pontrjagin_target=pontrjagin_target, chern_source=chern_source,
            chern_target=chern_target, name=name, _cache={})

    # ---- derived classes --------------------------------------------------

    def _cached(self, key, fn):
        if key not in self._cache:
            self._cache[key] = fn()
        return self._cache[key]

    @property
    def normal_pontrjagin(self) -> GradedClass:
        """P of the normal bundle: pulled-back target P times inverse source P."""
        return self._cached("P_nu", lambda: self.pullback(self.pontrjagin_target)
                            * self.pontrjagin_source.invert_unital())

    @property
    def normal_pontrjagin_inverse(self) -> GradedClass:
        return self._cached("P_nu_inv", lambda: self.normal_pontrjagin.invert_unital())

    @property
    def normal_chern(self) -> GradedClass:
        if self.chern_source is None or self.chern_target is None:
            raise ModelError("model carries no Chern data")
        return self._cached("C_nu", lambda: self.pullback(self.chern_target)
                            * self.chern_source.invert_unital())

    @property
    def l_source(self) -> GradedClass:
        return self._cached("L_M", lambda: genus_class(
            self.pontrjagin_source, signature_genus_log_coeffs))

    @property
    def l_target(self) -> GradedClass:
        return self._cached("L_N", lambda: genus_class(
            self.pontrjagin_target, signature_genus_log_coeffs))

    @property
    def l_normal_inverse(self) -> GradedClass:
        """L(normal)^-1: exp(-x) = exp(x)^-1 in a nilpotent ring, so it is
        the genus class of the negated L-genus log coefficients, with no
        inversion."""
        return self._cached("L_nu_inv", lambda: genus_class(
            self.normal_pontrjagin, lambda n: [-x for x in signature_genus_log_coeffs(n)]))

    # Herbert's hypotheses, each decided on its first read and kept as a
    # value: f*f_! = 0, and a target class that f* maps to e, to
    # L(normal)^-1, or None (f* is a unital ring homomorphism, so L(normal)
    # is pulled back exactly when its inverse is)
    null_pushpull = cached_property(lambda self: _pushpull_is_euler_times(self, 0))
    euler_preimage = cached_property(lambda self: _preimage_under(self.pullback, self.euler))
    l_normal_inverse_preimage = cached_property(lambda self: _preimage_under(
        self.pullback, self.l_normal_inverse))

    def pushpull(self, cls: GradedClass) -> GradedClass:
        """The composite pullback(pushforward(x)) on the source ring."""
        return self.pullback(self.pushforward(cls))

    def __repr__(self) -> str:
        return f"ImmersionModel({self.name or 'unnamed'}, codim={self.codim})"


def _mapped(table: Mapping[int, Coords], linmap: LinearMap) -> Dict[int, Coords]:
    """{j: linmap(table[j])} over the j where that is nonzero; the image of
    a basis element is read from linmap.images."""
    out = {}
    for j, x in table.items():
        if len(x) == 1 and 1 in x.values():
            m, = x
            y = linmap.images.get(m)
        else:
            y = linmap.apply_coords(x)
        if y:
            out[j] = y
    return out


def _row_witness(ring: GradedRing, left: Sequence[str], right: Sequence[str], rows) -> str:
    """The witness at the first column of the first pair of rows {j: class
    coordinates in ring} that differ, or "" when every pair agrees."""
    for i, (lhs, rhs) in enumerate(rows):
        if lhs != rhs:
            j = min(j for j in lhs.keys() | rhs.keys() if lhs.get(j) != rhs.get(j))
            return (f"on ({left[i]}, {right[j]}): "
                    f"{ring.element(lhs.get(j, {}))} != {ring.element(rhs.get(j, {}))}")
    return ""


def validate(model: ImmersionModel) -> ValidationReport:
    """Run every consistency check the formulas rely on, once per model: the
    report is memoised on the model.  When every check passed, the two zero
    facts that signatures.zero_warning reads on every query, (embedding,
    null_pushforward), are decided here with the checks, not in a query, and
    memoised on the model as one entry, "zero facts".

    null_pushforward: f_! = 0.  Every pushed class is then 0, and so, by
    integration compatibility, is every integral over the source.  The
    virtual class at k >= 1 is a sum of products of pushed classes, and
    every number an integral over the source or of a pushed class over the
    target (a product of pushed classes is pushed, by the projection
    formula), so on a valid model every invariant at k >= 1 is 0.
    embedding: f*f_!(x) = e * x.  Each partition term of a transfer is then
    e^(k-1) times the product of the factors, weighted by prod_B (-1)^(|B|-1)
    (|B|-1)!, and these weights sum to k! [t^k] exp(log(1 + t)) = 0 for
    k >= 2: on a valid model every invariant at k >= 2 is 0.

    Report-valued: failures carry a witness, nothing raises.
    """
    report = model._cache.get("validation")
    if report is None:
        checks = tuple(_checks(model))
        if all(c.ok for c in checks):
            model._cache["zero facts"] = (embedding_consistent(model),
                                          not any(model.pushforward.images.values()))
        report = model._cache.setdefault("validation", ValidationReport(checks))
    return report


def _checks(model: ImmersionModel) -> Iterator[Check]:
    src_issues = model.source.check_axioms()
    yield Check("source ring axioms", not src_issues, "; ".join(src_issues[:3]))
    tgt_issues = model.target.check_axioms()
    yield Check("target ring axioms", not tgt_issues, "; ".join(tgt_issues[:3]))

    yield Check("codimension positive even", model.codim > 0 and model.codim % 2 == 0,
                f"codim={model.codim}")

    e_ok = all(model.source.degrees[i] == model.codim for i in model.euler.coords)
    yield Check("euler class degree equals codimension", e_ok, f"euler={model.euler}")

    # pullback: unital degree-preserving ring homomorphism
    issues = model.pullback.respects_degrees(0)
    yield Check("pullback preserves degrees", not issues, "; ".join(issues[:3]))
    unital = model.pullback(model.target.unit()) == model.source.unit()
    yield Check("pullback is unital", unital)
    # Multiplicativity and the projection formula are compared a row of basis
    # pairs at a time, on coordinate dicts; classes are built only for a witness.
    source, target = model.source, model.target
    pull, push = model.pullback, model.pushforward
    ns = len(source.labels)
    # by_basis[l] = {j: e_l f*(e_j)}, the one table both checks read
    by_basis: List[Dict[int, Coords]] = [{} for _ in range(ns)]
    for j, img in pull.images.items():
        for l, x in combine_rows(img, source.rows).items():
            by_basis[l][j] = x

    # f*(e_i e_j) against f*(e_i) f*(e_j) = sum_l c_l e_l f*(e_j) over
    # f*(e_i) = sum_l c_l e_l; both sides are symmetric in (i, j), so the
    # first row that differs differs first at some j >= i
    mult_witness = _row_witness(source, target.labels, target.labels, (
        (_mapped(row, pull), combine_rows(pull.images.get(i, {}), by_basis))
        for i, row in enumerate(target.rows)))
    yield Check("pullback is multiplicative", not mult_witness, mult_witness)

    issues = push.respects_degrees(model.codim)
    yield Check("pushforward raises degree by codimension", not issues,
                f"shift={model.codim}; " + "; ".join(issues[:3]))

    # f_!(e_i f*(e_j)) against f_!(e_i) e_j
    proj_witness = _row_witness(target, source.labels, target.labels, (
        (_mapped(row, push), combine_rows(push.images.get(i, {}), target.rows))
        for i, row in enumerate(by_basis)))
    yield Check("projection formula", not proj_witness, proj_witness)

    # integration compatibility on every source basis element: one below
    # its component's top degree has no source integral, so its pushforward
    # must have none on the target either
    int_witness = ""
    for i in range(ns):
        lhs = target.integrate_coords(push.images.get(i, {}))
        rhs = source.integrate_coords({i: 1})
        if lhs != rhs:
            int_witness = f"on {source.labels[i]}: {lhs} != {rhs}"
            break
    yield Check("integration compatibility", not int_witness, int_witness)

    for label, cls in (("source", model.pontrjagin_source), ("target", model.pontrjagin_target)):
        ok = cls.is_unital() and all(
            cls.ring.degrees[i] % 4 == 0 for i in cls.coords)
        yield Check(f"{label} Pontrjagin class is unital with degrees 0 mod 4", ok, f"{cls}")

    for label, cls in (("source", model.chern_source), ("target", model.chern_target)):
        if cls is not None:
            yield Check(f"{label} Chern class is unital", cls.is_unital(), f"{cls}")

    # the L-class of a total class needs its log series up to the largest
    # power sum, at a cost that grows faster than the square of its order:
    # bound that degree before any L-class is built, from power sums (which
    # cost no series) on a ring that holds a degree above the bound
    try:
        high = []
        for label, ring, cls in (
                ("source", model.source, lambda: model.pontrjagin_source),
                ("target", model.target, lambda: model.pontrjagin_target),
                ("pulled-back target", model.source,
                 lambda: model.pullback(model.pontrjagin_target)),
                ("normal", model.source, lambda: model.normal_pontrjagin)):
            if max(d for d in ring.degrees if d % 4 == 0) > MAX_CLASS_DEGREE:
                top = 4 * max(power_sum_coords(cls()), default=0)
                if top > MAX_CLASS_DEGREE:
                    high.append(f"{label} Pontrjagin class has a power sum in degree {top}")
    except GradedAlgebraError as exc:
        yield Check("normal class derivation", False, str(exc))
        return
    if high:
        yield Check(f"Pontrjagin power sums within degree {MAX_CLASS_DEGREE}", False,
                    "; ".join(high))
        return

    # derived-class relations (hold by construction; checked as regression).
    # TM + normal = f*TN gives L(source) = f*L(target) * L(normal)^-1: the
    # three L-classes every signature route reads, so the check builds no
    # class of its own and covers the inverse
    try:
        rel_p = model.normal_pontrjagin * model.pontrjagin_source == model.pullback(
            model.pontrjagin_target)
        rel_l = model.l_source == model.pullback(model.l_target) * model.l_normal_inverse
        yield Check("normal Pontrjagin relation", rel_p)
        yield Check("normal signature-class relation", rel_l)
    except GradedAlgebraError as exc:
        yield Check("normal class derivation", False, str(exc))


def embedding_consistent(model: ImmersionModel) -> bool:
    """f*f_!(x) = e * x on every x, the self-intersection identity of embeddings
    (decided by validate, as the first of the model's zero facts): then there
    are no k-tuple points for k >= 2."""
    return _pushpull_is_euler_times(model, 1)


def _pushpull_is_euler_times(model: ImmersionModel, c: int) -> bool:
    """True iff pullback(pushforward(e_i)) = c * euler * e_i (c 0 or 1) on
    every source basis element, compared on coordinate dicts up to the first
    e_i that fails; euler * e_i is read from the source's product table."""
    times_euler = combine_rows(model.euler.coords, model.source.rows) if c else {}
    pull, pushed = model.pullback.apply_coords, model.pushforward.images
    return all(pull(pushed.get(i, {})) == times_euler.get(i, {})
               for i in range(len(model.source.labels)))


def _solve_linear(columns: Sequence[Coords], target: Coords) -> Optional[List[Fraction]]:
    """Solve sum_j v_j * columns[j] = target over the rationals.

    Returns one solution of Fractions, 0 at every free unknown, or None
    when the system is inconsistent.  Sparse exact elimination: each row
    {j: coefficient, -1: right-hand side} is reduced by the earlier pivot
    rows and scaled to 1 at its least unknown, back substitution runs in
    reverse, and ints stay ints until the end (graded._divide).
    """
    rows: Dict[int, Dict[int, Scalar]] = {}
    for j, col in [*enumerate(columns), (-1, target)]:
        for r, c in col.items():
            if c:
                rows.setdefault(r, {})[j] = c
    pivots: List[Tuple[int, Dict[int, Scalar]]] = []
    for row in rows.values():
        for p, pivot in pivots:
            c = row.get(p)
            if c:
                for j, v in pivot.items():
                    row[j] = row.get(j, 0) - c * v
        row = {j: v for j, v in row.items() if v}
        unknowns = [j for j in row if j >= 0]
        if unknowns:
            p = min(unknowns)
            a = row[p]
            pivots.append((p, row if a == 1 else {j: _divide(v, a) for j, v in row.items()}))
        elif row:
            return None
    solution: List[Scalar] = [0] * len(columns)
    for p, pivot in reversed(pivots):
        solution[p] = pivot.get(-1, 0) - sum(v * solution[j] for j, v in pivot.items()
                                             if j >= 0 and j != p)
    return list(map(Fraction, solution))


def _preimage_under(linmap: LinearMap, target: GradedClass) -> Optional[GradedClass]:
    """A class mapping to ``target`` under the linear map, or None."""
    indices = sorted(linmap.images)
    columns = [linmap.images[i] for i in indices]
    solution = _solve_linear(columns, target.coords)
    if solution is None:
        return None
    return linmap.domain.element({i: v for i, v in zip(indices, solution) if v})
