"""Cohomological data of a generic even-codimension immersion.

A model bundles the source and target rings, the pullback and pushforward
maps, the normal Euler class and the total Pontrjagin (optionally Chern)
classes.  Normal-bundle characteristic classes are always derived from the
source/target data, never user-supplied.  Models need not come from an
actual immersion; validation checks exactly the hypotheses the multiple
point formulas use.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence

from .graded import (
    Coords,
    GradedAlgebraError,
    GradedClass,
    GradedRing,
    Scalar,
    basis_indices,
    combine_rows,
    genus_coords,
    power_sum_coords,
    signature_genus_log_coeffs,
)
from .records import Frozen, FrozenRecord, Record, _shown


class ModelError(ValueError):
    pass


# The L-class of a total Pontrjagin class whose power sums reach degree d
# needs the log series of the L-genus to order d/4; validation refuses
# power sums above this degree (order 64 of the series).
MAX_CLASS_DEGREE = 256


class LinearMap(FrozenRecord):
    """Linear map between graded rings, given by images of basis elements."""

    __slots__ = ("domain", "codomain", "images", "degree_shift")

    def __init__(self, domain: GradedRing, codomain: GradedRing,
                 images: Mapping[int, GradedClass], degree_shift: int = 0):
        basis_indices(list(images), len(domain.labels), "map domain index")
        if type(degree_shift) is not int:
            raise ModelError(f"degree shift must be an int, got {_shown(degree_shift)}")
        if any(img.ring is not codomain and img.ring != codomain for img in images.values()):
            raise ModelError("an image is not in the codomain of the map")
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "codomain", codomain)
        object.__setattr__(self, "images", images)
        object.__setattr__(self, "degree_shift", degree_shift)

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
            if img is not None:
                for j, v in img.coords.items():
                    out[j] = out.get(j, 0) + c * v
        return {j: c for j, c in out.items() if c}

    @classmethod
    def from_coords(cls, domain: GradedRing, codomain: GradedRing,
                    images: Mapping[int, Mapping[int, object]],
                    degree_shift: int = 0) -> "LinearMap":
        built = {i: codomain.element(coords) for i, coords in images.items()}
        return cls(domain, codomain, built, degree_shift)

    def respects_degrees(self) -> List[str]:
        issues = []
        for i, img in self.images.items():
            want = self.domain.degrees[i] + self.degree_shift
            for j in img.coords:
                if self.codomain.degrees[j] != want:
                    issues.append(
                        f"image of {self.domain.labels[i]} has a term of degree "
                        f"{self.codomain.degrees[j]}, expected {want}")
        return issues


class Check(NamedTuple):
    name: str
    ok: bool
    detail: str = ""


class ValidationReport(Record):
    __slots__ = ("checks",)

    def __init__(self, checks: Optional[List[Check]] = None):
        self.checks = [] if checks is None else checks

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append(Check(name, ok, detail))

    def failures(self) -> List[Check]:
        return [c for c in self.checks if not c.ok]

    def __str__(self) -> str:
        lines = []
        for c in self.checks:
            status = "ok" if c.ok else "FAIL"
            lines.append(f"[{status}] {c.name}" + (f": {c.detail}" if c.detail and not c.ok else ""))
        return "\n".join(lines)


def check_codim(codim: object) -> None:
    """Refuse a codimension that is not a positive even int."""
    if type(codim) is not int or codim <= 0 or codim % 2:
        raise ModelError(f"codimension must be a positive even integer, got {_shown(codim)}")


class ImmersionModel(Frozen):
    """The full cohomological datum of an even-codimension immersion.

    A model is a value: its fields are set once, here, and refused after,
    so what _cache memoises for it (derived classes, the validation checks,
    the formulas' chains) never goes stale."""

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
        check_codim(codim)
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
    def normal_chern(self) -> GradedClass:
        if self.chern_source is None or self.chern_target is None:
            raise ModelError("model carries no Chern data")
        return self._cached("C_nu", lambda: self.pullback(self.chern_target)
                            * self.chern_source.invert_unital())

    @property
    def l_source(self) -> GradedClass:
        return self._cached("L_M", lambda: self.genus_class(
            self.pontrjagin_source, signature_genus_log_coeffs))

    @property
    def l_target(self) -> GradedClass:
        return self._cached("L_N", lambda: self.genus_class(
            self.pontrjagin_target, signature_genus_log_coeffs))

    @property
    def l_normal_inverse(self) -> GradedClass:
        """L(normal)^-1: exp(-x) = exp(x)^-1 in a nilpotent ring, so it is
        the genus class of the negated L-genus log coefficients, with no
        inversion."""
        return self._cached("L_nu_inv", lambda: self.genus_class(
            self.normal_pontrjagin, lambda n: [-x for x in signature_genus_log_coeffs(n)]))

    def power_sum_coords(self, P: GradedClass, step: int = 4) -> Dict[int, Coords]:
        """graded.power_sum_coords of a class of this model, memoised per
        class and step; callers must not mutate the result."""
        memo = self._cached("power_sums", dict)
        key = (P, step)
        if key not in memo:
            memo[key] = power_sum_coords(P, step)
        return memo[key]

    def genus_class(self, P: GradedClass, log_coeffs: Callable[[int], Sequence[Scalar]],
                    step: int = 4) -> GradedClass:
        """graded.genus_class on the memoised power sums of P."""
        return GradedClass(P.ring, genus_coords(P.ring, self.power_sum_coords(P, step),
                                                log_coeffs))

    def pushpull(self, cls: GradedClass) -> GradedClass:
        """The composite pullback(pushforward(x)) on the source ring."""
        return self.pullback(self.pushforward(cls))

    def __repr__(self) -> str:
        return f"ImmersionModel({self.name or 'unnamed'}, codim={self.codim})"


def _mapped(table: Mapping[int, Coords], images: Mapping[int, Coords],
            linmap: LinearMap) -> Dict[int, Coords]:
    """{j: linmap(table[j])} over the j where that is nonzero; the image of
    a basis element is read from images = {m: linmap(e_m)}."""
    out = {}
    for j, x in table.items():
        if len(x) == 1 and 1 in x.values():
            m, = x
            y = images.get(m)
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
    """Run every consistency check the formulas rely on, once per model:
    the checks are memoised on the model as a tuple, and each call hands
    out a report of its own, so a caller that adds to it changes no later
    report.

    Report-valued: failures carry a witness, nothing raises.
    """
    checks = model._cache.get("validation")
    if checks is None:
        checks = model._cache.setdefault("validation", tuple(_checks(model).checks))
    return ValidationReport(list(checks))


def _checks(model: ImmersionModel) -> ValidationReport:
    report = ValidationReport()

    src_issues = model.source.check_axioms()
    report.add("source ring axioms", not src_issues, "; ".join(src_issues[:3]))
    tgt_issues = model.target.check_axioms()
    report.add("target ring axioms", not tgt_issues, "; ".join(tgt_issues[:3]))

    report.add("codimension positive even", model.codim > 0 and model.codim % 2 == 0,
               f"codim={model.codim}")

    e_ok = all(model.source.degrees[i] == model.codim for i in model.euler.coords)
    report.add("euler class degree equals codimension", e_ok, f"euler={model.euler}")

    # pullback: unital degree-preserving ring homomorphism
    issues = model.pullback.respects_degrees()
    report.add("pullback preserves degrees", not issues, "; ".join(issues[:3]))
    unital = model.pullback(model.target.unit()) == model.source.unit()
    report.add("pullback is unital", unital)
    # Multiplicativity and the projection formula are compared a row of basis
    # pairs at a time, on coordinate dicts; classes are built only for a witness.
    source, target = model.source, model.target
    pull, push = model.pullback, model.pushforward
    ns, nt = len(source.labels), len(target.labels)
    pulled = {j: pull.images[j].coords for j in range(nt) if j in pull.images}
    pushed = {i: push.images[i].coords for i in range(ns) if i in push.images}
    # by_basis[l] = {j: e_l f*(e_j)}, the one table both checks read
    by_basis: List[Dict[int, Coords]] = [{} for _ in range(ns)]
    for j, img in pulled.items():
        for l, x in combine_rows(img, source.rows).items():
            by_basis[l][j] = x

    # f*(e_i e_j) against f*(e_i) f*(e_j) = sum_l c_l e_l f*(e_j) over
    # f*(e_i) = sum_l c_l e_l; both sides are symmetric in (i, j), so the
    # first row that differs differs first at some j >= i
    mult_witness = _row_witness(source, target.labels, target.labels, (
        (_mapped(row, pulled, pull), combine_rows(pulled.get(i, {}), by_basis))
        for i, row in enumerate(target.rows)))
    report.add("pullback is multiplicative", not mult_witness, mult_witness)

    issues = push.respects_degrees()
    shift_ok = push.degree_shift == model.codim and not issues
    report.add("pushforward raises degree by codimension", shift_ok,
               f"shift={push.degree_shift}; " + "; ".join(issues[:3]))

    # f_!(e_i f*(e_j)) against f_!(e_i) e_j
    proj_witness = _row_witness(target, source.labels, target.labels, (
        (_mapped(row, pushed, push), combine_rows(pushed.get(i, {}), target.rows))
        for i, row in enumerate(by_basis)))
    report.add("projection formula", not proj_witness, proj_witness)

    # integration compatibility on every source basis element: one below
    # its component's top degree has no source integral, so its pushforward
    # must have none on the target either
    int_witness = ""
    for i in range(ns):
        lhs = target.integrate_coords(pushed.get(i, {}))
        rhs = source.integrate_coords({i: 1})
        if lhs != rhs:
            int_witness = f"on {source.labels[i]}: {lhs} != {rhs}"
            break
    report.add("integration compatibility", not int_witness, int_witness)

    for label, cls in (("source", model.pontrjagin_source), ("target", model.pontrjagin_target)):
        ok = cls.is_unital() and all(
            cls.ring.degrees[i] % 4 == 0 for i in cls.coords)
        report.add(f"{label} Pontrjagin class is unital with degrees 0 mod 4", ok, f"{cls}")

    for label, cls in (("source", model.chern_source), ("target", model.chern_target)):
        if cls is not None:
            report.add(f"{label} Chern class is unital", cls.is_unital(), f"{cls}")

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
                top = 4 * max(model.power_sum_coords(cls()), default=0)
                if top > MAX_CLASS_DEGREE:
                    high.append(f"{label} Pontrjagin class has a power sum in degree {top}")
    except GradedAlgebraError as exc:
        report.add("normal class derivation", False, str(exc))
        return report
    if high:
        report.add(f"Pontrjagin power sums within degree {MAX_CLASS_DEGREE}", False,
                   "; ".join(high))
        return report

    # derived-class relations (hold by construction; checked as regression).
    # TM + normal = f*TN gives L(source) = f*L(target) * L(normal)^-1: the
    # three L-classes every signature route reads, so the check builds no
    # class of its own and covers the inverse
    try:
        rel_p = model.normal_pontrjagin * model.pontrjagin_source == model.pullback(
            model.pontrjagin_target)
        rel_l = model.l_source == model.pullback(model.l_target) * model.l_normal_inverse
        report.add("normal Pontrjagin relation", rel_p)
        report.add("normal signature-class relation", rel_l)
    except GradedAlgebraError as exc:
        report.add("normal class derivation", False, str(exc))

    return report


def embedding_consistent(model: ImmersionModel) -> bool:
    """True iff pullback(pushforward(x)) = euler * x on every basis element,
    compared on coordinate dicts up to the first basis element that fails.

    This is the self-intersection identity of embeddings; models satisfying
    it have no multiple points, so their k>1 invariants vanish.
    """
    push, pull = model.pushforward.apply_coords, model.pullback.apply_coords
    mul, euler = model.source.mul_coords, model.euler.coords
    return all(pull(push({i: 1})) == mul({i: 1}, euler) for i in range(len(model.source.labels)))


class Vanishing(NamedTuple):
    """What the data of a valid model proves 0 before any kernel runs.

    null_pushforward: f_! = 0.  Every pushed class is then 0, and so, by
    integration compatibility, is every integral over the source.  The
    virtual class at k >= 1 is a sum of products of pushed classes, and
    every number an integral over the source or of a pushed class over
    the target (a product of pushed classes is pushed, by the projection
    formula), so every invariant at k >= 1 is 0.
    embedding: f*f_!(x) = e * x.  Each partition term of a transfer is
    then e^(k-1) times the product of the factors, weighted by
    prod_B (-1)^(|B|-1) (|B|-1)!, and these weights sum to
    k! [t^k] exp(log(1 + t)) = 0 for k >= 2: every invariant at k >= 2 is 0.
    """

    null_pushforward: bool
    embedding: bool


def vanishing(model: ImmersionModel) -> Optional[Vanishing]:
    """The model's Vanishing, memoised beside its validation checks; None
    until validate has passed on the model, so that on any other model
    every route still runs and the routes still check each other."""
    flags = model._cache.get("vanishing")
    if flags is None:
        checks = model._cache.get("validation")
        if checks is None or not all(c.ok for c in checks):
            return None
        flags = model._cache["vanishing"] = Vanishing(
            not any(img.coords for img in model.pushforward.images.values()),
            embedding_consistent(model))
    return flags
