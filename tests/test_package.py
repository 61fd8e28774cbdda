import ast
from pathlib import Path

import crl


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
