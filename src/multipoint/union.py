"""Disjoint unions of immersion models: several sources immersed in one
shared target.

Only a model built from components needs this module: the bundled
``two-lines``, a model file with components, and the virtual signature
class of several components, ``virtual_signature_class(disjoint_union(models), k)``:
the union's normal blocks are the sums of the components' blocks, so its
one chain gives the class of every distribution of the sheets.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from .graded import Coords, GradedClass, GradedRing, RingComponent
from .model import ImmersionModel, LinearMap, ModelError
from .records import _shown


def product_ring(rings: Sequence[GradedRing], name: str = "") -> GradedRing:
    """Direct product of graded rings, one component per factor.

    Basis labels are suffixed with the factor index; products across
    factors vanish; the unit and integral are the sums of the factors'.
    """
    labels: List[str] = []
    degrees: List[int] = []
    products: Dict[Tuple[int, int], Coords] = {}
    integral: Coords = {}
    unit: Coords = {}
    components: List[RingComponent] = []
    offset = 0
    for fi, ring in enumerate(rings):
        labels.extend(f"{lab}@{fi}" for lab in ring.labels)
        degrees.extend(ring.degrees)
        for i, row in enumerate(ring.rows):
            for j, coords in row.items():
                if i <= j:
                    products[(i + offset, j + offset)] = {idx + offset: c
                                                          for idx, c in coords.items()}
        for idx, c in ring.integral.items():
            integral[idx + offset] = c
        for idx, c in ring.unit_coords.items():
            unit[idx + offset] = c
        for comp in ring.components:
            components.append(RingComponent(
                f"{comp.name}@{fi}", tuple(i + offset for i in comp.indices), comp.top_degree))
        offset += len(ring.labels)
    return GradedRing(labels, degrees, products, integral,
                      top_degree=max(r.top_degree for r in rings),
                      unit=unit, components=tuple(components), name=name)


def _block_class(union: GradedRing, classes: Sequence[GradedClass],
                 offsets: Sequence[int]) -> GradedClass:
    coords: Coords = {}
    for cls, off in zip(classes, offsets):
        for i, c in cls.coords.items():
            coords[i + off] = c
    return union.element(coords)


def disjoint_union(models: Sequence[ImmersionModel], name: str = "") -> ImmersionModel:
    """Combine immersions of disjoint sources into one shared target.  The
    union of one model is that model, under name when one is given."""
    if not (isinstance(models, (list, tuple))
            and all(isinstance(m, ImmersionModel) for m in models)):
        raise ModelError(f"models must be a list or tuple of ImmersionModels, got {_shown(models)}")
    if not models:
        raise ModelError("disjoint union of zero models")
    if len(models) == 1:
        m = models[0]
        if not name or name == m.name:
            return m
        return ImmersionModel(m.source, m.target, m.pullback, m.pushforward, m.codim, m.euler,
                              m.pontrjagin_source, m.pontrjagin_target, m.chern_source,
                              m.chern_target, name=name)
    target = models[0].target
    # the union carries Chern data only when every component does
    chern = all(m.chern_source is not None and m.chern_target is not None for m in models)
    for m in models[1:]:
        if m.target != target:
            raise ModelError("disjoint union requires identical target data")
        if m.codim != models[0].codim:
            raise ModelError("disjoint union requires equal codimension")
        if m.pontrjagin_target != models[0].pontrjagin_target:
            raise ModelError("disjoint union requires one shared target Pontrjagin class")
        if chern and m.chern_target != models[0].chern_target:
            raise ModelError("disjoint union requires one shared target Chern class")
    source = product_ring([m.source for m in models],
                          name=name + ".source" if name else "")
    offsets = []
    off = 0
    for m in models:
        offsets.append(off)
        off += len(m.source.labels)

    # f*(e_j) is the sum of the components' images, each on its own block;
    # f_!(e_i) is the image of e_i in its component
    pull_images: Dict[int, Coords] = {j: {} for j in range(len(target.labels))}
    push_images: Dict[int, Coords] = {}
    for m, off in zip(models, offsets):
        for j, img in m.pullback.images.items():
            pull_images[j].update((i + off, c) for i, c in img.items())
        for i, img in m.pushforward.images.items():
            push_images[i + off] = img

    euler = _block_class(source, [m.euler for m in models], offsets)
    p_src = _block_class(source, [m.pontrjagin_source for m in models], offsets)
    chern_src = _block_class(source, [m.chern_source for m in models], offsets) if chern else None
    return ImmersionModel(
        source=source,
        target=target,
        pullback=LinearMap(target, source, pull_images),
        pushforward=LinearMap(source, target, push_images),
        codim=models[0].codim,
        euler=euler,
        pontrjagin_source=p_src,
        pontrjagin_target=models[0].pontrjagin_target,
        chern_source=chern_src,
        chern_target=models[0].chern_target if chern else None,
        name=name or "union(" + ",".join(m.name or "?" for m in models) + ")",
    )
