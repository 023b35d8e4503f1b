"""Every public function and class of the library has a reader outside the tests.

The readers are the other library modules, the benchmark and the
scripts: a name defined at module level in src/disclab must appear as a
Name or an Attribute identifier in one of their files, its own module
included.  Code that only tests call belongs with the test oracles.  This
is a name-based guard, not a proof: a name read under another object's
attribute, or read only in a dead branch, still counts as read.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = sorted(p for p in (ROOT / "src" / "disclab").glob("*.py") if p.name != "__init__.py")
READERS = LIBRARY + sorted((ROOT / "perfbench").glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))


def test_every_public_definition_is_read():
    read = set()
    for path in READERS:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    public = [
        (path.name, node.name)
        for path in LIBRARY
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    ]
    assert [f"{module}:{name}" for module, name in public if name not in read] == []
