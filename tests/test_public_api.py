"""Every public definition of the library has a reader besides its own unit tests.

A public ``def`` or ``class`` in ``src/fisherflow/`` must be referenced by library
code other than its own definition, an ``__all__`` list and ``__init__``'s
re-exports, or by ``tests/test_acceptance.py``, ``tests/oracles.py``, ``bench/``
or ``tools/``. In those outside files a reference goes through ``fisherflow``:
a name imported from it, an attribute of a name bound to one of its modules,
or a string naming the attribute, as ``bench/spans.py`` names what it wraps.

A public method or property of a public class needs the same: a read of its
name in library code other than its own definition, or an attribute of that
name, or a string naming it, in an outside file. The objects of outside files
are not typed, so there any attribute of that name counts.
"""

import ast
import glob
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LIBRARY = sorted(glob.glob(os.path.join(ROOT, "src", "fisherflow", "*.py")))
OUTSIDE = sorted(
    [os.path.join(ROOT, "tests", "test_acceptance.py"), os.path.join(ROOT, "tests", "oracles.py")]
    + glob.glob(os.path.join(ROOT, "bench", "*.py"))
    + glob.glob(os.path.join(ROOT, "tools", "*.py"))
)

#: Public definitions kept without such a reader.
ALLOWED = {
    # its tests feed arbitrary maps and priors, which retrodiction_context cannot
    "bayes_inverse",
}


def _names(node: ast.AST) -> set[str]:
    """Every name, attribute and imported name read anywhere under ``node``."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name.split(".")[-1])
    return out


def _is_all(node: ast.stmt) -> bool:
    return isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets)


def _outside_names(tree: ast.Module) -> set[str]:
    """Library names that an outside file reads through ``fisherflow``."""
    modules, out = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "fisherflow":
                    modules.add(alias.asname or "fisherflow")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "fisherflow":
            for alias in node.names:
                out.add(alias.name)
                modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            out.add(node.value)
    for node in ast.walk(tree):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if chain and isinstance(node, ast.Name) and node.id in modules:
            out.update(chain)
    return out


def _is_read(node: ast.AST, read: set[str], statements: list[tuple[ast.AST, set[str]]]) -> bool:
    """Whether ``read`` holds the name of ``node`` or a statement other than ``node`` reads it."""
    return node.name in read or any(node.name in names for other, names in statements if other is not node)


def unreferenced(library: dict[str, str], outside: list[str], allowed=ALLOWED) -> list[str]:
    """Each public definition in ``library`` (module name -> source) with no reader.

    A top-level one is named ``module.name``, a method or property of a
    public class ``module.Class.name``.
    """
    trees = {module: ast.parse(source) for module, source in library.items()}
    read, attributes = set(), set()
    for source in outside:
        tree = ast.parse(source)
        read |= _outside_names(tree)
        attributes |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    # the names each top-level statement reads, but for __all__ and __init__'s re-exports
    statements = [
        (node, _names(node))
        for module, tree in trees.items()
        for node in tree.body
        if not _is_all(node) and not (module == "__init__" and isinstance(node, ast.ImportFrom))
    ]
    # class bodies split into their statements, so that one member may read another
    parts = [
        (part, _names(part))
        for node, _ in statements
        for part in (node.body if isinstance(node, ast.ClassDef) else [node])
    ]
    found = []
    for module, tree in sorted(trees.items()):
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            if node.name not in allowed and not _is_read(node, read, statements):
                found.append(f"{module}.{node.name}")
            for member in node.body if isinstance(node, ast.ClassDef) else []:
                if not isinstance(member, ast.FunctionDef) or member.name.startswith("_"):
                    continue
                if member.name not in allowed and not _is_read(member, read | attributes, parts):
                    found.append(f"{module}.{node.name}.{member.name}")
    return found


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def test_scan_finds_an_unreferenced_definition():
    library = {
        "__init__": "from .a import kept, unread, by_bench, by_name\n",
        "a": (
            "__all__ = ['unread']\n"
            "def kept(): return helper()\n"
            "def helper(): return 1\n"
            "def unread(): return unread()\n"
            "def by_bench(): pass\n"
            "def by_name(): pass\n"
            "def _private(): pass\n"
        ),
        "b": "from .a import kept\nkept()\n",
    }
    outside = [
        "import fisherflow as ff\nff.a.by_bench()\nother.unread()\n",
        "TARGETS = (('span', 'fisherflow.a', 'by_name'),)\n",
    ]
    assert unreferenced(library, outside) == ["a.unread"]


def test_scan_finds_an_unreferenced_member():
    library = {
        "a": (
            "class Form:\n"
            "    def solve(self): return self.helper()\n"
            "    def helper(self): return 1\n"
            "    @property\n"
            "    def unread(self): return self.unread\n"
            "    @property\n"
            "    def by_bench(self): return 1\n"
            "    def _private(self): pass\n"
            "class _Hidden:\n"
            "    def unread(self): pass\n"
            "def use(form): return form.solve()\n"
        ),
    }
    outside = ["import fisherflow as ff\nff.a.use(ff.a.Form())\nform.by_bench\n"]
    assert unreferenced(library, outside) == ["a.Form.unread"]


def test_every_public_definition_has_a_reader():
    library = {os.path.splitext(os.path.basename(path))[0]: _read(path) for path in LIBRARY}
    assert unreferenced(library, [_read(path) for path in OUTSIDE]) == []


def test_allowed_names_are_needed():
    library = {os.path.splitext(os.path.basename(path))[0]: _read(path) for path in LIBRARY}
    found = unreferenced(library, [_read(path) for path in OUTSIDE], allowed=set())
    assert sorted(name.split(".")[-1] for name in found) == sorted(ALLOWED)
