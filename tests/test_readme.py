"""README's Python examples and prose name only what the package provides.

The ```python blocks are parsed with :mod:`ast`, never run.  Every
``from repro... import X`` must resolve and every ``session.<attr>`` must
exist on a :class:`~repro.api.Session`, so an entry point deleted from the
package fails here instead of lingering in the docs.  Every backticked
dotted ``repro.…`` name in the prose must import as a module or resolve as
an attribute, so a renamed module fails here too.
"""

import ast
import importlib
import re
from pathlib import Path

from repro.api import Session

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_trees():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.S | re.M)
    return [ast.parse(block) for block in blocks]


def nodes(kind):
    return [node for tree in readme_trees() for node in ast.walk(tree) if isinstance(node, kind)]


def test_every_repro_import_resolves():
    imports = [node for node in nodes(ast.ImportFrom) if node.module.split(".")[0] == "repro"]
    assert any(node.module == "repro" for node in imports)
    for node in imports:
        module = importlib.import_module(node.module)
        for alias in node.names:
            assert hasattr(module, alias.name), f"from {node.module} import {alias.name}"


def test_every_session_attribute_exists():
    used = {
        node.attr
        for node in nodes(ast.Attribute)
        if isinstance(node.value, ast.Name) and node.value.id == "session"
    }
    assert "plan" in used
    session = Session()
    missing = sorted(attr for attr in used if not hasattr(session, attr))
    assert not missing, f"README uses session attributes Session lacks: {missing}"


def prose_names():
    prose = re.sub(r"^```.*?^```", "", README.read_text(), flags=re.S | re.M)
    return sorted(set(re.findall(r"`(repro(?:\.\w+)+)`", prose)))


def resolves(dotted):
    """Whether ``dotted`` is a module, or an attribute chain off its longest module prefix."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attr in parts[cut:]:
            if not hasattr(target, attr):
                return False
            target = getattr(target, attr)
        return True
    return False


def test_every_dotted_repro_name_in_prose_resolves():
    names = prose_names()
    assert "repro.cost.platform" in names and "repro.lru.CAPACITY" in names
    unresolved = [name for name in names if not resolves(name)]
    assert not unresolved, f"README names what the package lacks: {unresolved}"
