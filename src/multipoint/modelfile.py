"""JSON serialization of immersion models.

Rationals are strings like "3/4" (or "5"); ring products and linear maps
are sparse nested maps keyed by stringified basis indices.  The reader
checks JSON shape and basis keys itself and reads every coordinate value
by ``graded.exact``, the one reader of a rational in the package.  A file
holding {"components": [...]} is read as a disjoint union over a shared
target; a component holds no components of its own.
``save_model`` writes one line per top-level field, each value through
json's C encoder; the reader takes JSON of any layout.
Validation is structural only; mathematical consistency is the job of
model validation.  ``load_model`` returns one model per file text, so a
reload of an unchanged file keeps the validation and memos of the first,
and every reader returns one ring per ring object while that ring is held,
so models of files that hold one ring share it and its memo.
"""

from __future__ import annotations

import json
import marshal
import threading
import weakref
from functools import lru_cache
from pathlib import Path
from typing import Dict, Mapping, Optional, Tuple, Union

from .graded import GradedAlgebraError, GradedClass, GradedRing, RingComponent, Scalar, exact
from .model import ImmersionModel, LinearMap
from .records import _shown

FORMAT_VERSION = 1


class ModelFormatError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Rational and sparse-map encoding
# ---------------------------------------------------------------------------


def _at(where: str, keys) -> str:
    return where + "".join(f"[{_shown(k, str)}]" for k in keys)


def _coords_to_json(coords: Mapping[int, Scalar]) -> Dict[str, str]:
    return {str(i): str(c) for i, c in sorted(coords.items())}


@lru_cache(maxsize=None)
def _basis_keys(n: int) -> Dict[str, int]:
    """{key: index} for a basis of n classes, shared by every caller, which
    must not mutate it.  A key is the canonical decimal of an index below n
    ("0", "12"), so no two keys name the same index."""
    return {str(i): i for i in range(n)}


def _bad_index(key, basis: Mapping[str, int], where: str, *keys) -> ModelFormatError:
    return ModelFormatError(f"{_at(where, keys)}: bad basis index {_shown(key)}; an index "
                            f"is a canonical decimal below {len(basis)}, such as '0'")


def _coords_from(obj, n: int, where: str, *keys) -> Dict[int, Scalar]:
    """{index: rational} from the JSON object at where[key]... on a basis of
    n classes, each value read by graded.exact; the location is put
    together only for an error."""
    if not isinstance(obj, dict):
        raise ModelFormatError(f"{_at(where, keys)}: expected an object of index -> rational")
    basis = _basis_keys(n)
    out: Dict[int, Scalar] = {}
    for key, value in obj.items():
        idx = basis.get(key)
        if idx is None:
            raise _bad_index(key, basis, where, *keys)
        try:
            out[idx] = exact(value)
        except GradedAlgebraError as exc:
            raise ModelFormatError(f"{_at(where, keys)}[{key}]: bad rational: {exc}") from None
    return out


def _require(obj: Mapping, key: str, where: str):
    if key not in obj:
        raise ModelFormatError(f"{where}: missing required field {key!r}")
    return obj[key]


# ---------------------------------------------------------------------------
# Rings
# ---------------------------------------------------------------------------


def ring_to_dict(ring: GradedRing) -> dict:
    return {
        "labels": list(ring.labels),
        "degrees": list(ring.degrees),
        "products": {f"{i},{j}": _coords_to_json(c) for (i, j), c in sorted(ring.products.items())},
        "integral": _coords_to_json(ring.integral),
        "top_degree": ring.top_degree,
        "unit": _coords_to_json(ring.unit_coords),
        "components": [
            {"name": c.name, "indices": list(c.indices), "top_degree": c.top_degree}
            for c in ring.components
        ],
        "name": ring.name,
    }


# The rings read from ring objects, each held while a model (or any caller)
# holds it: a table bounded by the loaded models.  A ring object's key is
# its marshal bytes: they name the builtin type of every value (1, 1.0 and
# True differ; so do a list and a tuple, and the keys "3" and 3) and keep
# the key order, so objects of one key are equal, of the same types, and
# read as one ring.  Version 0 writes a string alike whether or not it is
# interned (version 3 and later do not).  Objects marshal does not write (a
# Fraction, a subclass of a builtin) are read as they stand.
_rings: "weakref.WeakValueDictionary[bytes, GradedRing]" = weakref.WeakValueDictionary()


def ring_from_dict(obj, where: str = "ring") -> GradedRing:
    """The ring of a ring object.  An object equal to one read before, with
    values of the same types and keys in the same order (as every file that
    save_model writes has them), gives the ring built then while that ring is
    held, with the memo it carries (a ring is a value, so sharing it is
    safe); a ring refused is never held, so it is refused again on every
    read."""
    try:
        key = marshal.dumps(obj, 0)
    except ValueError:
        return _build_ring(obj, where)
    with _loaded_lock:
        held = _rings.get(key)
    if held is not None:
        return held
    ring = _build_ring(obj, where)
    with _loaded_lock:
        return _rings.setdefault(key, ring)


def _build_ring(obj, where: str) -> GradedRing:
    if not isinstance(obj, dict):
        raise ModelFormatError(f"{where}: expected an object")
    labels = _require(obj, "labels", where)
    degrees = _require(obj, "degrees", where)
    if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
        raise ModelFormatError(f"{where}: labels must be a list of strings")
    if not isinstance(degrees, list):
        raise ModelFormatError(f"{where}: degrees must be a list")

    raw_products = _require(obj, "products", where)
    if not isinstance(raw_products, dict):
        raise ModelFormatError(f"{where}: products must be an object")
    products: Dict[Tuple[int, int], Dict[int, Scalar]] = {}
    n, at = len(labels), f"{where}.products"
    basis = _basis_keys(n)
    for key, coords in raw_products.items():
        i, comma, j = key.partition(",") if type(key) is str else ("", "", "")
        if not comma:
            raise ModelFormatError(f"{where}: product key {_shown(key)} is not 'i,j'")
        for part in (i, j):
            if part not in basis:
                raise _bad_index(part, basis, at, key)
        products[(basis[i], basis[j])] = _coords_from(coords, n, at, key)

    integral = _coords_from(_require(obj, "integral", where), n, f"{where}.integral")
    unit = _coords_from(obj["unit"], n, f"{where}.unit") if "unit" in obj else None
    components = None
    if "components" in obj:
        if not isinstance(obj["components"], list):
            raise ModelFormatError(f"{where}: components must be a list")
        components = []
        for n, c in enumerate(obj["components"]):
            cwhere = f"{where}.components[{n}]"
            if not isinstance(c, dict):
                raise ModelFormatError(f"{cwhere}: expected an object")
            indices = _require(c, "indices", cwhere)
            if not isinstance(indices, list):
                raise ModelFormatError(f"{cwhere}: indices must be a list")
            top = _require(c, "top_degree", cwhere)
            components.append(RingComponent(str(c.get("name", f"c{n}")), tuple(indices), top))
    try:
        return GradedRing(labels, degrees, products, integral,
                          top_degree=obj.get("top_degree"), unit=unit,
                          components=components, name=str(obj.get("name", "")))
    except ValueError as exc:
        raise ModelFormatError(f"{where}: {exc}") from None


# ---------------------------------------------------------------------------
# Models
# ---------------------------------------------------------------------------


def _map_to_dict(linmap: LinearMap) -> Dict[str, Dict[str, str]]:
    return {str(i): _coords_to_json(img) for i, img in sorted(linmap.images.items())}


def _map_from(obj, domain: GradedRing, codomain: GradedRing, where: str) -> LinearMap:
    if not isinstance(obj, dict):
        raise ModelFormatError(f"{where}: expected an object of index -> class")
    images = {}
    basis = _basis_keys(len(domain.labels))
    for key, coords in obj.items():
        if key not in basis:
            raise _bad_index(key, basis, where)
        images[basis[key]] = _coords_from(coords, len(codomain.labels), where, key)
    return LinearMap(domain, codomain, images)


def _class_from(obj, ring: GradedRing, where: str) -> GradedClass:
    return ring.element(_coords_from(obj, len(ring.labels), where))


def model_to_dict(model: ImmersionModel) -> dict:
    out = {
        "format_version": FORMAT_VERSION,
        "name": model.name,
        "codim": model.codim,
        "source": ring_to_dict(model.source),
        "target": ring_to_dict(model.target),
        "pullback": _map_to_dict(model.pullback),
        "pushforward": _map_to_dict(model.pushforward),
        "euler": _coords_to_json(model.euler.coords),
        "pontrjagin_source": _coords_to_json(model.pontrjagin_source.coords),
        "pontrjagin_target": _coords_to_json(model.pontrjagin_target.coords),
    }
    if model.chern_source is not None:
        out["chern_source"] = _coords_to_json(model.chern_source.coords)
    if model.chern_target is not None:
        out["chern_target"] = _coords_to_json(model.chern_target.coords)
    return out


def model_from_dict(obj, where: str = "model") -> ImmersionModel:
    """The model of a model object; its rings are read by ring_from_dict."""
    if not isinstance(obj, dict):
        raise ModelFormatError(f"{where}: expected an object")
    if "components" in obj:
        raw = obj["components"]
        if not isinstance(raw, list) or not raw:
            raise ModelFormatError(f"{where}: components must be a nonempty list")
        parts = []
        for n, c in enumerate(raw):
            cwhere = f"{where}.components[{n}]"
            if isinstance(c, dict) and "components" in c:
                raise ModelFormatError(f"{cwhere}: a component holds no components; "
                                       "a union is one level deep")
            parts.append(model_from_dict(c, cwhere))
        from .union import disjoint_union  # a file without components never compiles it
        try:
            return disjoint_union(parts, name=str(obj.get("name", "")))
        except ValueError as exc:
            raise ModelFormatError(f"{where}: {exc}") from None

    version = obj.get("format_version", FORMAT_VERSION)
    if version != FORMAT_VERSION:
        raise ModelFormatError(f"{where}: unsupported format_version {version}")
    codim = _require(obj, "codim", where)
    source = ring_from_dict(_require(obj, "source", where), f"{where}.source")
    target = ring_from_dict(_require(obj, "target", where), f"{where}.target")
    pullback = _map_from(_require(obj, "pullback", where), target, source, f"{where}.pullback")
    pushforward = _map_from(_require(obj, "pushforward", where), source, target,
                            f"{where}.pushforward")
    euler = _class_from(_require(obj, "euler", where), source, f"{where}.euler")
    p_src = _class_from(_require(obj, "pontrjagin_source", where), source,
                        f"{where}.pontrjagin_source")
    p_tgt = _class_from(_require(obj, "pontrjagin_target", where), target,
                        f"{where}.pontrjagin_target")
    chern_src = (_class_from(obj["chern_source"], source, f"{where}.chern_source")
                 if "chern_source" in obj else None)
    chern_tgt = (_class_from(obj["chern_target"], target, f"{where}.chern_target")
                 if "chern_target" in obj else None)
    try:
        return ImmersionModel(
            source=source, target=target, pullback=pullback, pushforward=pushforward,
            codim=codim, euler=euler, pontrjagin_source=p_src, pontrjagin_target=p_tgt,
            chern_source=chern_src, chern_target=chern_tgt,
            name=str(obj.get("name", "")))
    except ValueError as exc:
        raise ModelFormatError(f"{where}: {exc}") from None


def save_model(model: ImmersionModel, path: Union[str, Path]) -> None:
    """One line per top-level field, each value on json's C encoder, which
    an ``indent`` would bypass for the pure-Python one."""
    fields = (f"  {json.dumps(key)}: {json.dumps(value)}"
              for key, value in model_to_dict(model).items())
    Path(path).write_text("{\n" + ",\n".join(fields) + "\n}\n", encoding="utf-8")


# The models of the most recently loaded file texts, oldest first: at most
# LOADED_MODELS, each with the memos its queries built.
LOADED_MODELS = 64
_loaded: Dict[str, ImmersionModel] = {}
_loaded_lock = threading.Lock()


def _remember(text: str, model: Optional[ImmersionModel] = None) -> Optional[ImmersionModel]:
    """The model held for text, now the most recent; model is stored for
    text when none is held, the oldest dropped past the bound."""
    with _loaded_lock:
        held = _loaded.pop(text, None) or model
        if held is not None:
            _loaded[text] = held
            if len(_loaded) > LOADED_MODELS:
                del _loaded[next(iter(_loaded))]
        return held


def load_model(path: Union[str, Path]) -> ImmersionModel:
    """The model in a model file, read on every call.  A text loaded before,
    among the last LOADED_MODELS distinct ones, gives the same model object;
    model_from_dict(model_to_dict(m)) builds a copy with model memos of its
    own, which shares its rings, and their memos, with every model whose
    rings were read from equal ring objects while those rings are held."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ModelFormatError(f"{path}: cannot read a model file: {exc}") from None
    model = _remember(text)
    if model is None:
        try:
            obj = json.loads(text)
        except (ValueError, RecursionError) as exc:
            # ValueError: malformed JSON, or an integer literal over the
            # interpreter's digit limit; RecursionError: nesting too deep
            raise ModelFormatError(f"{path}: not valid JSON: {exc}") from None
        model = _remember(text, model_from_dict(obj, where=str(path)))
    return model
