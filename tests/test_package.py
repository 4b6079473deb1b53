"""The README's library-use example, run against the top-level package."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
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
