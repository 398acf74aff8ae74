"""Seeded fuzz of model-file intake: random mutations of the bundled models'
JSON.  Through the CLI's validate and compute, in-process, every malformed
file must end as exit 2 (invalid model) or 3 (usage error), a well-formed
one as exit 0; nothing may raise, and exit 1 (route disagreement) must not
appear.  Through the library's `load_model` alone, a file must load or
raise `ModelFormatError`, never another exception."""

import json
import random
import threading

import pytest

from multipoint import cli
from multipoint.modelfile import ModelFormatError, load_model, model_to_dict
from multipoint.models import BUNDLED, bundled_model

MUTATIONS = 300
LOAD_MUTATIONS = 1000
VALUES = [None, True, False, 0, 1, -1, 2, 3, 4, 2000, 10**30, -(10**30), 1.5, "", "x",
          "0", "1", "-1", "2", "4", "1/2", "-3/4", "1/0", "1e3", " 1", [], [0, 1], {},
          {"0": "1"}, {"1": "1"}, {"9": "1"}, {"-1": "1"}, {"0,9": {"1": "1"}}]
KEYS = ["0", "1", "2", "9", "-1", "0,0", "0,1", "1,1", "0,9", "x", "top_degree",
        "components", "codim", "format_version"]


def _slots(node, out):
    """Every (container, key) pair in a JSON tree, depth first."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        out.append((node, key))
        if isinstance(child, (dict, list)):
            _slots(child, out)
    return out


def _mutate(obj, rng):
    container, key = rng.choice(_slots(obj, []))
    roll = rng.random()
    if roll < 0.6:
        container[key] = rng.choice(VALUES)
    elif roll < 0.8:
        del container[key]
    elif isinstance(container, dict):
        container[rng.choice(KEYS)] = rng.choice(VALUES)
    else:
        container.append(rng.choice(VALUES))


def _mutated_files(rng, path, count):
    """Write `count` mutated model files to `path` in turn, yielding after each."""
    originals = [json.dumps(model_to_dict(bundled_model(name))) for name in sorted(BUNDLED)]
    for _ in range(count):
        obj = json.loads(rng.choice(originals))
        for _ in range(rng.randint(1, 3)):
            _mutate(obj, rng)
        path.write_text(json.dumps(obj))
        yield


def test_mutated_model_files_exit_cleanly(tmp_path, capsys):
    rng = random.Random(20261018)
    path = tmp_path / "mutated.json"
    for _ in _mutated_files(rng, path, MUTATIONS):
        k = str(rng.randint(1, 3))
        for argv in (["validate", str(path)],
                     ["compute", str(path), "--k", k, "--quantity", "signature"]):
            code = cli.main(argv)
            capsys.readouterr()
            assert code in (0, 2, 3), (argv, code, path.read_text()[:2000])


def test_mutated_model_files_load_or_raise_a_format_error(tmp_path):
    # the library side alone: no validation or CLI catches what the reader lets through
    rng = random.Random(20261019)
    path = tmp_path / "mutated.json"
    loaded = refused = 0
    for _ in _mutated_files(rng, path, LOAD_MUTATIONS):
        try:
            load_model(path)
        except ModelFormatError:
            refused += 1
        except Exception as exc:
            pytest.fail(f"{type(exc).__name__}: {exc} on {path.read_text()[:2000]}")
        else:
            loaded += 1
    assert loaded and refused


@pytest.mark.parametrize("top", [2000, 10**30])
@pytest.mark.parametrize("ring", ["source", "target"])
def test_declared_top_degree_does_not_size_the_series(tmp_path, capsys, ring, top):
    # the classes vanish above the largest basis degree, so a large declared
    # top degree changes neither the cost nor the answers
    obj = model_to_dict(bundled_model("line-in-plane"))
    obj[ring]["top_degree"] = top
    path = tmp_path / "top.json"
    path.write_text(json.dumps(obj))
    for argv, want in ((["validate", str(path)], None),
                       (["compute", str(path), "--k", "1", "--quantity", "signature"], "0"),
                       (["compute", str(path), "--k", "1", "--quantity", "bk"], None)):
        assert cli.main(argv) == 0, argv
        out = capsys.readouterr().out
        assert "[FAIL]" not in out
        if want is not None:
            assert out.strip() == want


def test_huge_pontrjagin_degrees_exit_cleanly_and_quickly(tmp_path, capsys):
    # a Pontrjagin or Chern part in a huge basis degree must not size the
    # L-class series: validate refuses it, and compute exits 2, in time
    rng = random.Random(20261020)
    path = tmp_path / "huge.json"
    codes = []

    def run():
        for _ in range(40):
            obj = model_to_dict(bundled_model(rng.choice(sorted(BUNDLED))))
            ring = rng.choice(["source", "target"])
            i = rng.randrange(1, len(obj[ring]["degrees"]))
            obj[ring]["degrees"][i] = rng.choice([2000, 4 * 10 ** 6, 10 ** 30])
            obj[ring]["top_degree"] = max(obj[ring]["degrees"])
            key = rng.choice(["pontrjagin", "pontrjagin", "chern"]) + "_" + ring
            if obj.get(key) is not None:
                obj[key][str(i)] = rng.choice(["1", "-2", "1/3"])
            path.write_text(json.dumps(obj))
            k = str(rng.randint(1, 3))
            for argv in (["validate", str(path)],
                         ["compute", str(path), "--k", k, "--quantity", "signature"],
                         ["compute", str(path), "--k", k, "--quantity", "pontrjagin=4"]):
                codes.append((argv[0], cli.main(argv)))
                capsys.readouterr()

    worker = threading.Thread(target=run, daemon=True)
    worker.start()
    worker.join(timeout=30)
    assert not worker.is_alive(), f"stalled after {len(codes)} commands"
    assert len(codes) == 120 and {code for _, code in codes} <= {2, 3}
