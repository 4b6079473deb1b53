"""The README's library-use example, run against the top-level package,
and the imports of the package and its tests."""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
E_10 = "x1 + ((q - q*t)/(1 - q*t))*x2"


def test_readme_library_use():
    text = README.read_text()
    block = re.search(r"## Library use\s+```python\n(.*?)```", text,
                      re.DOTALL).group(1)
    assert "from msym import" in block and E_10 in block
    ns = {}
    exec(block, ns)
    assert str(ns["E"]) == E_10
    P, lab = ns["P"], ns["lab"]
    assert ns["scalar_product_m"](P, P, m=1) == ns["norm_formula"](lab)


def test_every_import_is_read():
    files = [p for p in sorted((ROOT / "src" / "msym").glob("*.py"))
             if p.name != "__init__.py"]
    files += sorted((ROOT / "tests").glob("*.py"))
    unused = []
    for path in files:
        tree = ast.parse(path.read_text())
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node
            elif (isinstance(node, ast.ImportFrom)
                  and node.module != "__future__"):
                for alias in node.names:
                    imported[alias.asname or alias.name] = node
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)}
        unused += ["%s:%d %s" % (path.name, node.lineno, name)
                   for name, node in imported.items() if name not in read]
    assert not unused


def test_only_the_field_layers_import_qt_ring():
    # Z[q,t] sits under Q(q,t): qt_field builds on it, polyring prints
    # through its term printer and macdonald clears its caches; every
    # other module sees scalars only through qt_field
    importers = set()
    for path in sorted((ROOT / "src" / "msym").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
                names += ["%s.%s" % (node.module or "", alias.name)
                          for alias in node.names]
            else:
                continue
            if any(name.split(".")[-1] == "qt_ring" for name in names):
                importers.add(path.stem)
    assert importers == {"qt_field", "polyring", "macdonald"}
