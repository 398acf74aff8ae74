"""Inputs and queries of the three benchmark workloads.

Every workload is a closed loop: one client sends its queries one at a
time from a single process, in an order shuffled by the seed so that each
kind of query is spread over the whole run.  The seed decides the
generated models; no (model, k, quantity) query repeats within a run, so
a memo inside the library only pays off where distinct queries share work.

lattice  Small rings (source basis <= 5) at high multiplicity.  The
         acceptance set (50 seeded random truncated models plus the 9
         bundled ones) is written to JSON, loaded and validated during
         set-up.  Queries are the signature (route auto, all four routes),
         the virtual signature class and a Pontrjagin number for k = 2..4
         on every model, k = 5 on the models with at most 3 basis classes,
         and k = 6 on one bundled model for the tail.
wide     Large rings (target basis 12, 20 and 40) at k <= 3.  Set-up
         writes hypersurface models (see wide.py) to JSON; every query is
         load_model -> validate -> signature at one k in 1..3 (k = 1 only
         at 40), the path of a one-shot user; every fifth small model also
         gets a virtual class and a Pontrjagin number query.
cli      One-shot `python -m multipoint.cli` subprocesses with
         PYTHONPATH=src: examples, identities at --max-k 1 and 2,
         validate, and compute (signature at
         k <= 4, bk, pontrjagin= and chern=, and --route collected at
         k = 9) on bundled models and on wide JSON files.

Every query's answer is rendered as the text the CLI prints, so one
reference serves the library call and the CLI command.
"""

from __future__ import annotations

import contextlib
import io
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from multipoint import cli, formulas, modelfile, models
from multipoint import model as model_mod
from wide import wide_model

DEFAULT_SEED = 20260823
WORKLOADS = ("lattice", "wide", "cli")

# k = 5 takes about 0.1 s per query on 3 basis classes and about 1 s on 5, so
# it runs on the smaller models only; k = 6 (about 2.5 s for its three
# queries) runs on one bundled model.
LATTICE_K5_MAX_BASIS = 3
LATTICE_K6_MODELS = ("hypersurface-d3",)

# Wide sizes (a, b) of V_d x CP^b -> CP^a x CP^b; the target basis has
# (a+1)(b+1) classes: 12 (small), 20 (mid) and 40 (large).  Slots are fixed
# per run and the seed picks d and mu.  The counts put the median query well
# inside the small class and the 90th percentile well inside the mid class,
# so neither percentile sits on the step between two sizes.
WIDE_SMALL, WIDE_MID = 24, 8
WIDE_SLOTS = [(3, 2)] * WIDE_SMALL + [(3, 4), (4, 3)] * (WIDE_MID // 2) + [(7, 4)]
# The large model costs seconds per query (cubic validation), so it is
# queried at k = 1 only.
WIDE_LARGE_K = (1,)
# Three small wide files and one mid: their 16 commands are the slowest
# 14 % of the cli batch, so its 90th percentile sits inside the small
# ones' cluster rather than on the step below it.
CLI_WIDE_SLOTS = [(3, 2), (3, 2), (3, 2), (3, 4)]
WIDE_D = (1, 2, 3, 4)
WIDE_MU = (-3, -2, -1, 3, 4, 5)  # mu in {0, 1, 2} makes k >= 3 vanish identically


@dataclass(frozen=True)
class Query:
    """One request.  ``model`` is a bundled name or a JSON file name in the
    work directory; ``quantity`` is a CLI quantity, or 'validate',
    'identities' (with --max-k k), 'examples' or 'examples-json' for the
    other CLI commands."""

    model: str
    k: int
    quantity: str
    route: str = "auto"

    @property
    def qid(self) -> str:
        route = "" if self.route == "auto" else f"|{self.route}"
        return f"{self.model}|{self.k}|{self.quantity}{route}"

    def argv(self, workdir: Path) -> List[str]:
        ref = self.model if self.model in models.BUNDLED else str(workdir / self.model)
        if self.quantity == "examples":
            return ["examples"]
        if self.quantity == "examples-json":
            return ["examples", "--json"]
        if self.quantity == "validate":
            return ["validate", ref]
        if self.quantity == "identities":
            return ["identities", "--max-k", str(self.k)]
        argv = ["compute", ref, "--k", str(self.k), "--quantity", self.quantity]
        return argv + (["--route", self.route] if self.route != "auto" else [])


# ---------------------------------------------------------------------------
# Model specifications: how to build every model of a run in memory
# ---------------------------------------------------------------------------


def _nonzero(rng: random.Random, bound: int) -> int:
    return rng.choice([v for v in range(-bound, bound + 1) if v])


def _redrawn(m, rng: random.Random):
    """A model of the same shape as random_truncated_model's draw ``m``
    (ring sizes, codimension, and which classes and coefficients are zero),
    with its nonzero values drawn again from the same ranges."""
    powers, half = len(m.source.labels) - 1, m.codim // 2
    mu = _nonzero(rng, 3) if m.source.integral else 0
    iota = rng.choice([1, 1, 2, -1])
    lam = _nonzero(rng, 2) if m.euler.coords else 0
    M = models.truncated_polynomial_ring("t", powers, integral_value=mu * iota, name="rand-src")
    N = models.truncated_polynomial_ring("h", powers + half, integral_value=iota,
                                         name="rand-tgt")
    pullback = model_mod.LinearMap.from_coords(
        N, M, {j: ({j: 1} if j <= powers else {}) for j in range(powers + half + 1)})
    pushforward = model_mod.LinearMap.from_coords(
        M, N, {i: {i + half: mu} for i in range(powers + 1)}, degree_shift=m.codim)

    def redraw(cls, ring):
        return ring.element({i: 1 if i in ring.unit_coords else _nonzero(rng, 4)
                             for i in cls.coords})

    return model_mod.ImmersionModel(
        source=M, target=N, pullback=pullback, pushforward=pushforward, codim=m.codim,
        euler=M.element({half: lam} if lam else {}),
        pontrjagin_source=redraw(m.pontrjagin_source, M),
        pontrjagin_target=redraw(m.pontrjagin_target, N),
        name=f"random(m={powers},c={m.codim},mu={mu},lambda={lam})")


def acceptance_random_models(seed: int) -> list:
    """The 50 random models of the acceptance test (seed 20260823).  Any
    other seed keeps their shapes and draws their nonzero values again, so
    the cost of a run depends on the seed only through the size of the
    numbers."""
    rng = random.Random(DEFAULT_SEED)
    out = []
    while len(out) < 50:
        out.append(models.random_truncated_model(rng, max_powers=3 if len(out) % 5 else 4))
    if seed == DEFAULT_SEED:
        return out
    rng = random.Random(seed)
    return [_redrawn(m, rng) for m in out]


def wide_params(seed: int, slots: Sequence[Tuple[int, int]]) -> List[Tuple[int, int, int, int]]:
    """Distinct (a, b, d, mu) for each slot."""
    rng = random.Random(f"wide:{seed}")
    picks: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
    for ab in dict.fromkeys(slots):
        combos = [(d, mu) for d in WIDE_D for mu in WIDE_MU]
        picks[ab] = rng.sample(combos, slots.count(ab))
    return [ab + picks[ab].pop() for ab in slots]


def _pontrjagin_quantity(m, k: int) -> str:
    dim = max(formulas.multiple_point_dimension(m, k))
    return "pontrjagin=" + ",".join(["4"] * (dim // 4)) if dim >= 4 else "pontrjagin="


@dataclass
class Spec:
    """Models of a run, built in memory, and its query batch."""

    models: Dict[str, object]               # key -> ImmersionModel
    wide: Dict[str, Tuple[int, int, int, int]]  # file name -> (a, b, d, mu)
    queries: List[Query]


def build_spec(workload: str, seed: int) -> Spec:
    if workload == "lattice":
        built = {name: models.bundled_model(name) for name in models.BUNDLED}
        for i, m in enumerate(acceptance_random_models(seed)):
            built[f"r{i:02d}.json"] = m
        queries = []
        for key, m in built.items():
            top = 5 if len(m.source.labels) <= LATTICE_K5_MAX_BASIS else 4
            for k in range(2, top + 1):
                for q in ("signature", "bk", _pontrjagin_quantity(m, k)):
                    queries.append(Query(key, k, q))
        for key in LATTICE_K6_MODELS:
            for q in ("signature", "bk", _pontrjagin_quantity(built[key], 6)):
                queries.append(Query(key, 6, q))
        random.Random(f"lattice:{seed}").shuffle(queries)
        return Spec(built, {}, queries)

    if workload == "wide":
        wide = {f"w{i:02d}.json": p for i, p in enumerate(wide_params(seed, WIDE_SLOTS))}
        built = {name: wide_model(*p) for name, p in wide.items()}
        queries = []
        for i, name in enumerate(wide):
            ks = WIDE_LARGE_K if i >= WIDE_SMALL + WIDE_MID else (1, 2, 3)
            queries += [Query(name, k, "signature") for k in ks]
            if i % 5 == 0 and i < WIDE_SMALL:
                # a few other quantities, so every route's layer is exercised
                queries += [Query(name, 2, "bk"), Query(name, 1, _pontrjagin_quantity(built[name], 1))]
        random.Random(f"wide-order:{seed}").shuffle(queries)
        return Spec(built, wide, queries)

    if workload == "cli":
        wide = {f"c{i:02d}.json": p for i, p in enumerate(wide_params(seed, CLI_WIDE_SLOTS))}
        built = {name: models.bundled_model(name) for name in models.BUNDLED}
        built.update({name: wide_model(*p) for name, p in wide.items()})
        queries = [Query("-", 0, "examples"), Query("-", 0, "examples-json"),
                   Query("-", 1, "identities"), Query("-", 2, "identities")]
        for name, m in built.items():
            queries.append(Query(name, 0, "validate"))
            if name in wide:
                queries += [Query(name, k, "signature") for k in (1, 2, 3)]
                continue
            queries += [Query(name, k, "signature") for k in (1, 2, 3, 4)]
            queries += [Query(name, k, "bk") for k in (1, 2, 3)]
            queries.append(Query(name, 9, "signature", route="collected"))
            queries.append(Query(name, 1, _pontrjagin_quantity(m, 1)))
            if m.chern_source is not None:
                queries += [Query(name, k, "chern=2") for k in (1, 2)]
        random.Random(f"cli:{seed}").shuffle(queries)
        return Spec(built, wide, queries)

    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# Set-up: what a run does before its first query
# ---------------------------------------------------------------------------


@dataclass
class Inputs:
    workload: str
    workdir: Path
    queries: List[Query]
    models: Dict[str, object]  # lattice only: key -> loaded model


def setup(workload: str, seed: int, workdir: Path) -> Inputs:
    """Build the models, write the JSON inputs and, for lattice, load and
    validate the acceptance set."""
    workdir.mkdir(parents=True, exist_ok=True)
    spec = build_spec(workload, seed)
    loaded: Dict[str, object] = {}
    for key, m in spec.models.items():
        if key.endswith(".json"):
            modelfile.save_model(m, workdir / key)
    if workload == "lattice":
        for key, m in spec.models.items():
            if key.endswith(".json"):
                m = modelfile.load_model(workdir / key)
            if not model_mod.validate(m).ok:
                raise RuntimeError(f"acceptance model {key} fails validation")
            loaded[key] = m
    return Inputs(workload, workdir, spec.queries, loaded)


# ---------------------------------------------------------------------------
# Answers, rendered as the CLI prints them
# ---------------------------------------------------------------------------


def class_text(cls) -> str:
    if not cls.coords:
        return "0"
    bits = []
    for i in sorted(cls.coords):
        lab = cls.ring.labels[i]
        c = str(cls.coords[i])
        bits.append(c if lab == "1" else f"{c}*{lab}")
    return " + ".join(bits)


def index_sequence(quantity: str) -> Tuple[int, ...]:
    body = quantity.split("=", 1)[1]
    return tuple(int(p) for p in body.split(",")) if body else ()


def evaluate(m, q: Query) -> str:
    """Answer a compute query with the library."""
    if q.quantity == "signature":
        return str(formulas.signature(m, q.k, route=q.route))
    if q.quantity == "bk":
        return class_text(formulas.virtual_signature_class(m, q.k))
    J = index_sequence(q.quantity)
    if q.quantity.startswith("pontrjagin="):
        return str(formulas.pontrjagin_number(m, q.k, J).value)
    return str(formulas.chern_number(m, q.k, J).value)


def run_query(inputs: Inputs, q: Query, root: Path) -> str:
    """One query as the workload's client sends it; returns the answer text.
    CLI subprocesses inherit PYTHONPATH=src from run.py."""
    if inputs.workload == "lattice":
        return evaluate(inputs.models[q.model], q)
    if inputs.workload == "wide":
        m = modelfile.load_model(inputs.workdir / q.model)
        if not model_mod.validate(m).ok:
            raise RuntimeError(f"{q.model} fails validation")
        return evaluate(m, q)
    proc = subprocess.run([sys.executable, "-m", "multipoint.cli", *q.argv(inputs.workdir)],
                          cwd=root, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}")
    return proc.stdout.rstrip("\n")


def run_cli_in_process(inputs: Inputs, q: Query) -> str:
    """The query's CLI command through cli.main in this process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(q.argv(inputs.workdir))
    if code != 0:
        raise RuntimeError(f"cli.main exit {code}")
    return out.getvalue().rstrip("\n")


def cli_sample(inputs: Inputs, count: int = 12) -> List[Query]:
    """The queries run through cli.main in-process for the cli.* layer."""
    if inputs.workload == "cli":
        return list(inputs.queries)
    stride = max(1, len(inputs.queries) // count)
    return inputs.queries[::stride][:count]
