import ast
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import crl

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
