import ast
import importlib.util
import itertools
import os
import random
import re
import runpy
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import crl
from crl import RuleList, autac_hat, curve, mine_rules, planted_benchmark

from conftest import make_random_dataset, make_random_preds
from oracles import exhaustive_best_autac

ROOT = Path(__file__).resolve().parents[1]


def test_all_lists_every_public_name_bound_in_init():
    tree = ast.parse(Path(crl.__file__).read_text())
    bound = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    bound |= {
        target.id
        for node in tree.body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name)
    }
    assert set(crl.__all__) == {name for name in bound if not name.startswith("_")}
    assert len(crl.__all__) == len(set(crl.__all__))


def test_every_exported_name_is_documented_in_readme():
    readme = (ROOT / "README.md").read_text()
    missing = [name for name in crl.__all__ if not re.search(rf"\b{name}\b", readme)]
    assert missing == []


def test_every_python_block_of_the_readme_runs():
    # the documented library example must follow the API it documents
    readme = (ROOT / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.DOTALL | re.MULTILINE)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})


def unread_parameters(source: str) -> list[str]:
    """``function(parameter)`` for each parameter its function's body never reads."""
    unread = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = node.args
        params = [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]
        read = {
            n.id
            for stmt in node.body
            for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        unread += [
            f"{node.name}({p.arg})"
            for p in params
            if p is not None
            and p.arg not in read
            and p.arg not in ("self", "cls")
            and not p.arg.startswith("_")
        ]
    return unread


def test_unread_parameters_finds_a_parameter_only_written():
    source = "def f(a, b, _c, *d, e, **g):\n    b = a + e\n    return lambda h: h\n"
    assert unread_parameters(source) == ["f(b)", "f(d)", "f(g)"]


def test_every_function_reads_each_of_its_parameters():
    # a parameter nothing reads still asks every caller for a value
    unread = [
        f"{path.name}:{name}"
        for path in sorted((ROOT / "src" / "crl").glob("*.py"))
        for name in unread_parameters(path.read_text())
    ]
    assert unread == []


RANDOM_NAMES = {"default_rng", "SeedSequence", "PCG64", "random_raw"}


def random_draws(source: str) -> list[str]:
    """Each place ``source`` names a random module, a seeding name or a bit generator's state.

    The random modules are numpy's and the standard library's: an import of
    ``random`` or from it, and an attribute read off a name ``random``.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            names = [f"{module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Attribute):
            value = node.value
            owner = value.id if isinstance(value, ast.Name) else getattr(value, "attr", "")
            names = [f"{owner}.{node.attr}"]
        elif isinstance(node, ast.Name):
            names = [node.id]
        else:
            continue
        for name in names:
            parts = name.split(".")
            if (
                name.replace("np.", "numpy.", 1).startswith("numpy.random")
                or parts[-1] in RANDOM_NAMES
                or (parts[-1] == "state" and parts[0] == "bit_generator")
                or (parts[0] == "random" and not isinstance(node, ast.Name))
            ):
                found.append(f"{node.lineno}:{name}")
    return found


def test_random_draws_finds_every_spelling():
    source = (
        "import numpy.random\nfrom numpy import random\nfrom numpy.random import PCG64\n"
        "rng = np.random.default_rng(0)\nx = rng.bit_generator.state\ny = bits.random_raw(4)\n"
        "z = SeedSequence(1)\nw = rng.random()\nimport random\nfrom random import Random\n"
        "v = random.getrandbits(8)\nimport os, random as r\nrandom = 3\n"
    )
    # a draw spelled rng.random() (line 8) and a variable named random (line 13) are not
    assert sorted(random_draws(source)) == [
        "10:random.Random", "11:random.getrandbits", "12:random", "1:numpy.random",
        "2:numpy.random", "3:numpy.random.PCG64", "4:np.random", "4:random.default_rng",
        "5:bit_generator.state", "6:bits.random_raw", "7:SeedSequence", "9:random",
    ]


def test_only_streams_draws_random_numbers():
    # crl.streams owns every seed and draw, so changing how they are made changes one module
    drawing = {
        path.name: random_draws(path.read_text())
        for path in sorted((ROOT / "src" / "crl").glob("*.py"))
        if path.name != "streams.py"
    }
    assert {name: found for name, found in drawing.items() if found} == {}


# Python keeps only seeding and random() stable across versions; getrandbits
# feeds the bounded draws, whose pinned values catch a change in it.
STABLE_RANDOM_METHODS = {"random", "getrandbits"}
RANDOM_METHODS = {name for name in dir(random.Random) if not name.startswith("_")}


def random_method_uses(source: str) -> list[str]:
    """Each place ``source`` reaches the standard library's generator other than
    through ``Random(seed)`` and its ``random`` and ``getrandbits``, by line.

    A stream's own methods, read off ``self``, do not count.
    """
    unstable = RANDOM_METHODS - STABLE_RANDOM_METHODS
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "random":
            # every name but the class is a function of the module's shared generator
            names = [alias.name for alias in node.names if alias.name != "Random"]
        elif isinstance(node, ast.Attribute) and node.attr in unstable:
            on_self = isinstance(node.value, ast.Name) and node.value.id == "self"
            names = [] if on_self else [node.attr]
        else:
            continue
        found += [(node.lineno, name) for name in names]
    return [f"{line}:{name}" for line, name in sorted(found)]


def test_random_method_uses_finds_every_spelling():
    source = (
        "from random import Random, shuffle\ng = Random(1)\nx = g.randrange(5)\n"
        "y = g.random() + g.getrandbits(32)\nrandom.seed(3)\nself.choice(4, 2, False)\n"
        "Random(2).sample(range(4), 2)\nfrom random import *\nz = self._gen.shuffle\n"
    )
    assert random_method_uses(source) == [
        "1:shuffle", "3:randrange", "5:seed", "7:sample", "8:*", "9:shuffle"
    ]


def test_streams_calls_only_the_stable_random_methods():
    # a CPython change to any other method would change every draw silently
    source = (ROOT / "src" / "crl" / "streams.py").read_text()
    assert random_method_uses(source) == []


def numpy_imports(source: str) -> list[str]:
    """Each place ``source`` imports numpy or one of its submodules, by line."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module] if node.level == 0 else []
        elif isinstance(node, ast.Call) and node.args:
            func, arg = node.func, node.args[0]
            called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
            dynamic = called in ("import_module", "__import__") and isinstance(arg, ast.Constant)
            names = [arg.value] if dynamic else []
        else:
            continue
        found += [(node.lineno, name) for name in names if name.split(".")[0] == "numpy"]
    return [f"{line}:{name}" for line, name in sorted(found)]


def test_numpy_imports_finds_every_spelling():
    source = (
        "import numpy\nimport numpy.random as r\nfrom numpy import array\n"
        "from numpy.linalg import norm\nimport os, numpy as np\nfrom . import numpy\n"
        "import numpyish\nm = importlib.import_module('numpy')\nn = __import__('numpy.fft')\n"
    )
    assert numpy_imports(source) == [
        "1:numpy", "2:numpy.random", "3:numpy", "4:numpy.linalg", "5:numpy", "8:numpy",
        "9:numpy.fft",
    ]


def test_no_module_imports_numpy():
    # no crl process pays for importing numpy; the tests alone use it, as an oracle
    importing = {
        path.name: numpy_imports(path.read_text())
        for path in sorted((ROOT / "src" / "crl").glob("*.py"))
    }
    assert {name: found for name, found in importing.items() if found} == {}


SWEEP_NAMES = {"sweep", "cover_masks", "SweepLevels"}


def sweep_readers(source: str) -> list[str]:
    """Each place ``source`` names the prefix sweep, its cover masks or its level type."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name.rsplit(".", 1)[-1] for alias in node.names]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.Name):
            names = [node.id]
        else:
            continue
        found += [f"{node.lineno}:{name}" for name in names if name in SWEEP_NAMES]
    return found


def test_sweep_readers_finds_every_spelling():
    source = (
        "from .objective import cover_masks, sweep as walk\nimport crl.objective.sweep\n"
        "x = objective.sweep(m, b, n)\nlevels: SweepLevels = []\n"
        "y = list_sweep(rl, d, p)\nz = sweeps + cover_mask\n"
    )
    assert sorted(sweep_readers(source)) == [
        "1:cover_masks", "1:sweep", "2:sweep", "3:sweep", "4:SweepLevels",
    ]


def test_only_objective_reads_the_sweep():
    # crl.objective owns the level tuples, so a change to a level changes one module
    reading = {
        path.name: sweep_readers(path.read_text())
        for path in sorted((ROOT / "src" / "crl").glob("*.py"))
        if path.name != "objective.py"
    }
    assert {name: found for name, found in reading.items() if found} == {}


def test_benchmark_tracer_patches_and_restores_every_traced_name():
    # perfbench/tracing.py wraps crl names by attribute; renaming one must fail here
    path = ROOT / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        patched = list(tracer._undo)
        assert patched
        for owner, attr, original in patched:
            assert getattr(owner, attr) is not original, attr
    finally:
        tracer.uninstall()
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, attr


def test_benchmark_smoke_run_passes():
    # the benchmark's output checks and traced names run against this checkout's crl
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--smoke"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert proc.stdout.splitlines()[-1] == "smoke: ok"


def test_cli_import_leaves_multiprocessing_out():
    # cv imports multiprocessing when it starts a pool; every other run skips the cost
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    code = "import sys, crl.cli; print('multiprocessing' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"

# Runs one crl command with a given usable-CPU count, then prints whether
# numpy was imported by the time the command returned.
NUMPY_DRIVER = (
    "import sys\n"
    "from crl import cli, search\n"
    "search._usable_cpus = lambda: int(sys.argv[1])\n"
    "code = cli.main(sys.argv[2:])\n"
    "print('numpy' in sys.modules)\n"
    "sys.exit(code)\n"
)
PLANTED = ("--data", "bench/data.csv", "--label-column", "label", "--preds", "bench/preds.txt")
MODEL = ("--model", "run/model.json", "--manifest", "run/manifest.json")


def run_numpy_free(cwd: Path, workers: int, *argv: str) -> None:
    """Run ``crl argv`` in a fresh process; it must succeed without importing numpy."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", NUMPY_DRIVER, str(workers), *argv],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert proc.stdout.splitlines()[-1] == "False", f"crl {argv[0]} imported numpy"


@pytest.fixture(scope="module")
def planted_run(tmp_path_factory):
    """A planted benchmark and a model trained on it, made by numpy-free runs."""
    work = tmp_path_factory.mktemp("numpy_free")
    run_numpy_free(work, 1, "synth", "--rows", "300", "--out", "bench")
    run_numpy_free(work, 1, "train", *PLANTED, "--iters", "200", "--out", "run")
    return work


@pytest.mark.parametrize(
    "workers, argv",
    [
        (1, ("synth", "--rows", "300", "--seed", "1", "--out", "bench1")),
        (1, ("train", *PLANTED, "--iters", "200", "--out", "run1")),
        (1, ("evaluate", *PLANTED, *MODEL)),
        (1, ("predict", *PLANTED, *MODEL, "--level", "1", "--out", "level.csv")),
        (1, ("predict", *PLANTED, *MODEL, "--transparency", "0.2", "--out", "t.csv")),
        (1, ("predict", *PLANTED, *MODEL, "--all-blackbox", "--out", "blackbox.csv")),
        (1, ("predict", *PLANTED, *MODEL, "--all-rules", "--out", "rules.csv")),
        (1, ("cv", *PLANTED, "--folds", "3", "--iters", "100", "--out", "cv1")),
        (2, ("cv", *PLANTED, "--folds", "3", "--iters", "100", "--out", "cv2")),
        (1, ("tune", *PLANTED, "--iters", "100", "--candidates", "0.001,0.01", "--out", "t.json")),
        (1, ("mine", "--data", "bench/data.csv", "--label-column", "label", "--out", "pool.json")),
    ],
    ids=[
        "synth", "train", "evaluate", "predict-level", "predict-transparency",
        "predict-all-blackbox", "predict-all-rules", "cv-1-worker", "cv-2-workers", "tune",
        "mine",
    ],
)
def test_command_runs_without_numpy(planted_run, workers, argv):
    run_numpy_free(planted_run, workers, *argv)


# Runs one crl command on two usable CPUs, then prints which of the pool
# modules were imported by the time the command returned.
POOL_DRIVER = (
    "import sys\n"
    "from crl import cli, search\n"
    "search._usable_cpus = lambda: 2\n"
    "code = cli.main(sys.argv[1:])\n"
    "print([m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules])\n"
    "sys.exit(code)\n"
)


@pytest.mark.parametrize(
    "argv",
    [
        ("cv", *PLANTED, "--folds", "3", "--iters", "100", "--out", "cv-pool"),
        ("tune", *PLANTED, "--iters", "100", "--candidates", "0.001,0.01", "--out", "t2.json"),
    ],
    ids=["cv", "tune"],
)
def test_chain_workers_run_without_a_pool_module(planted_run, argv):
    # the workers are forked on plain pipes: no executor or multiprocessing import
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", POOL_DRIVER, *argv],
        cwd=planted_run,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert proc.stdout.splitlines()[-1] == "[]"


def test_cli_import_leaves_the_runner_modules_out():
    # only a run that forks chain workers imports pickle and select
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    code = "import sys, crl.cli; print([m for m in ('pickle', 'select') if m in sys.modules])"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize(
    "script, args",
    [
        ("run_planted_benchmark.py", ("--rows", "400", "--iters", "300", "--max-len", "2")),
        ("naive_pairing_gap.py", ("--rows", "400", "--iters", "300", "--search-seeds", "1")),
    ],
)
def test_experiment_script_runs(script, args):
    # the scripts import package internals by name; a deleted name must fail here
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("seed", range(4))
def test_planted_benchmark_script_optimum_is_the_package_autac_maximum(seed):
    # the script enumerates by resuming sweep() level by level; it must agree with curve()
    script = runpy.run_path(str(ROOT / "scripts" / "run_planted_benchmark.py"))
    bench = planted_benchmark(300, seed)
    pool = mine_rules(bench.data, gamma=0.3)
    lists = itertools.chain.from_iterable(
        itertools.permutations(pool.rules, k) for k in (1, 2)
    )
    expected = max(autac_hat(curve(RuleList(rules), bench.data, bench.preds)) for rules in lists)
    got = script["exhaustive_best"](pool, bench.data, bench.preds, max_len=2)
    assert got == expected


@given(
    seed=st.integers(0, 2**31),
    n_rows=st.integers(4, 60),
    gamma=st.sampled_from([0.1, 0.2, 0.3]),
    max_len=st.integers(1, 3),
)
@settings(max_examples=40, deadline=None)
def test_planted_benchmark_script_bounds_keep_the_oracle_optimum(seed, n_rows, gamma, max_len):
    # the script's pruned walk against the row-by-row brute force of tests/oracles.py
    script = runpy.run_path(str(ROOT / "scripts" / "run_planted_benchmark.py"))
    data = make_random_dataset(seed, n_rows=n_rows, n_features=5, p=0.4)
    preds = make_random_preds(seed + 1, data)
    assume(all(data.class_masks))  # mining needs both classes
    pool = mine_rules(data, gamma=gamma, max_cardinality=2)
    specs = [(r.conditions, r.output) for r in pool.rules]
    expected = exhaustive_best_autac(specs, data.matrix, data.labels, preds.preds, max_len)
    assert script["exhaustive_best"](pool, data, preds, max_len=max_len) == expected


@pytest.mark.parametrize("max_len", [0, 4])
def test_oracle_refuses_a_length_it_does_not_walk(max_len):
    # it walks lists of 1 to 3 rules; any other length would be answered for another one
    with pytest.raises(ValueError, match="max_len must be 1, 2 or 3"):
        exhaustive_best_autac([((0,), 1)], [[True]], [1], [1], max_len)
