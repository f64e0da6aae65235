"""The compiled kernels must be drop-in identical to the pure-Python ones.

The tracked ``_kernels.c`` is built with the system C compiler into a
temporary directory, so these tests run wherever a compiler and the Python
headers exist, whether or not the extension was built in place.
"""

import importlib.util
import random
import shlex
import shutil
import subprocess
import sysconfig
from pathlib import Path

import pytest

from uplinksim import _backend, _kernels_py

KERNELS_C = Path(_kernels_py.__file__).with_name("_kernels.c")


@pytest.fixture(scope="module")
def compiled(tmp_path_factory):
    cc = shlex.split(sysconfig.get_config_var("CC") or "cc")
    include = sysconfig.get_paths()["include"]
    if shutil.which(cc[0]) is None:
        pytest.skip(f"no C compiler ({cc[0]}) found")
    if not Path(include, "Python.h").exists():
        pytest.skip(f"no Python.h under {include}")
    out = tmp_path_factory.mktemp("kernels") / (
        "_kernels" + sysconfig.get_config_var("EXT_SUFFIX"))
    subprocess.run(cc + ["-shared", "-fPIC", "-O2", "-I", include,
                         str(KERNELS_C), "-o", str(out)], check=True)
    spec = importlib.util.spec_from_file_location("uplinksim._kernels", out)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.BACKEND == "compiled"
    return module


def random_dfpq_instance(rng):
    nq = rng.randint(1, 6)
    sizes = [[rng.randint(1, 1400) for _ in range(rng.randint(0, 12))]
             for _ in range(nq)]
    full = [rng.random() < 0.7 or not s for s in sizes]
    quanta = [rng.randint(1, 1500) for _ in range(nq)]
    deficits = [rng.randint(0, 800) if sizes[q] else 0 for q in range(nq)]
    cursor = rng.randint(0, nq - 1)
    budget = rng.randint(0, 6000)
    return sizes, full, quanta, deficits, cursor, budget


def test_dfpq_kernels_agree(compiled):
    rng = random.Random(17)
    for _ in range(1500):
        sizes, full, quanta, deficits, cursor, budget = random_dfpq_instance(rng)
        # a truncated segment must exceed the budget, as in production use
        for q, s in enumerate(sizes):
            if not full[q] and sum(s) <= budget:
                full[q] = True
        a = _kernels_py.dfpq_take(sizes, full, quanta, deficits, cursor, budget)
        b = compiled.dfpq_take(sizes, full, quanta, deficits, cursor, budget)
        assert a == b


def test_edf_kernels_agree(compiled):
    rng = random.Random(23)
    for _ in range(1500):
        nq = rng.randint(1, 5)
        counts = [rng.randint(0, 8) for _ in range(nq)]
        deadlines = [sorted(rng.uniform(0, 200) for _ in range(c))
                     for c in counts]
        arrivals = [sorted(rng.uniform(0, 100) for _ in range(c))
                    for c in counts]
        sizes = [[rng.randint(1, 1000) for _ in range(c)] for c in counts]
        cids = rng.sample(range(100), nq)
        budget = rng.randint(0, 5000)
        a = _kernels_py.edf_take(deadlines, arrivals, sizes, cids, budget)
        b = compiled.edf_take(deadlines, arrivals, sizes, cids, budget)
        assert a == b


def test_waterfill_kernels_agree(compiled):
    rng = random.Random(29)
    for _ in range(3000):
        n = rng.randint(1, 16)
        deficits = [rng.randint(0, 5000) for _ in range(n)]
        weights = [rng.choice([0.5, 1.0, 1.5, 2.0, 3.25, 4.0, 10.0])
                   for _ in range(n)]
        remaining = rng.randint(0, 20000)
        a = _kernels_py.waterfill(deficits, weights, remaining)
        b = compiled.waterfill(deficits, weights, remaining)
        assert a == b


def test_full_runs_identical_across_backends(compiled, monkeypatch):
    from uplinksim.config import baseline_config
    from uplinksim.engine import SimMode, run

    cfg = baseline_config()
    keys = {}
    for name, kernels in (("python", _kernels_py), ("compiled", compiled)):
        monkeypatch.setattr(_backend, "kernels", kernels)
        assert _backend.backend_name() == name
        result = run(cfg.scenario, SimMode.SS1, 600, seed=1, rho=1.2)
        keys[name] = (
            [
                (p.size, p.arrival_time, p.departure_time)
                for s in result.conns
                for p in result.history[s.cid]
            ],
            result.used,
            result.granted,
        )
    assert keys["python"] == keys["compiled"]


def test_backend_selection_api():
    assert _backend.backend_name() in ("python", "compiled")
    assert "python" in _backend.available_backends()
    with pytest.raises(ValueError):
        _backend.get("never-heard-of-it")
