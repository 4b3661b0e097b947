"""The package's module structure: no module reads another's private names
or imports a name it never uses, and no module comes near the size at which
its compile's memory steps up."""

import ast
import io
import tokenize
from pathlib import Path

MODULES = sorted((Path(__file__).resolve().parents[1] / "src" / "ebn").glob("*.py"))


def test_no_module_imports_a_private_name_of_another():
    found = []
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.level or node.module.split(".")[0] == "ebn"):
                found += [(path.name, a.name) for a in node.names if a.name[0] == "_"]
    assert len(MODULES) > 10 and found == []


def test_no_module_imports_a_name_it_never_uses():
    # `__init__.py` imports only to export; `syntax` keeps `tokenize`, which
    # `perfbench` reads from it
    found = []
    for path in MODULES:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__":
                names = [(a.asname or a.name).split(".")[0] for a in node.names]
                found += [(path.name, name) for name in names if name not in used]
    assert found == [("syntax.py", "tokenize")]


def test_every_module_has_fewer_than_7500_tokens():
    # Tokens as `tokenize` counts them, without comments and blank lines.
    # Near 8,192 the parser's token array doubles, and `compile()`'s peak
    # memory jumps by about half a megabyte.
    sizes = {}
    for path in MODULES:
        tokens = tokenize.generate_tokens(io.StringIO(path.read_text(encoding="utf-8")).readline)
        sizes[path.name] = sum(t.type not in (tokenize.COMMENT, tokenize.NL) for t in tokens)
    assert sizes["syntax.py"] > 1000
    assert {name: n for name, n in sizes.items() if n >= 7500} == {}
