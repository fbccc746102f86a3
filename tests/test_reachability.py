"""Every function, class, method and module-level constant in
``src/thetanulls`` is used by the package itself: no code there is
reached only from the tests.

A definition counts as used when its name is read somewhere in the
package outside its own body, as a bare name or as an attribute.  Dunder
methods and ``__version__`` are left out because Python and packaging
read them implicitly.  The oracles that exist only to cross-check a
primary path are named below.

Every name a module imports is read in that module, so no import is
kept for the tests or the benchmark alone.  The package also stays
stdlib-only: it imports nothing from outside the standard library.
"""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "thetanulls"

# independent routes that the tests hold against the primary ones
ORACLES = {"gf2.pairing", "ramified.h0_theta_decomposed"}

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _definitions(tree: ast.Module, module: str):
    """(qualified name, bare name, node) for top-level functions, classes
    and assigned names, and the methods of those classes.  An assigned
    name is a ``Name`` target, or a ``Name`` inside a ``Tuple`` target."""
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                for name in target.elts if isinstance(target, ast.Tuple) else [target]:
                    if isinstance(name, ast.Name):
                        yield f"{module}.{name.id}", name.id, node
        if isinstance(node, DEFINITIONS):
            yield f"{module}.{node.name}", node.name, node
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, DEFINITIONS):
                        yield f"{module}.{node.name}.{member.name}", member.name, member


def _reads(node: ast.AST):
    """(name, line) of every bare name or attribute read under ``node``;
    an assignment target is not a read."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            yield sub.id, sub.lineno
        elif isinstance(sub, ast.Attribute) and not isinstance(sub.ctx, ast.Store):
            yield sub.attr, sub.lineno


def test_no_definition_is_reached_only_from_tests():
    modules = {
        path.stem: ast.parse(path.read_text())
        for path in sorted(PACKAGE.glob("*.py"))
    }
    reads = {module: list(_reads(tree)) for module, tree in modules.items()}
    unused = []
    for module, tree in modules.items():
        for qualname, name, node in _definitions(tree, module):
            if qualname in ORACLES or (name.startswith("__") and name.endswith("__")):
                continue
            own = range(node.lineno, node.end_lineno + 1)
            if not any(
                read == name and (other != module or line not in own)
                for other, module_reads in reads.items()
                for read, line in module_reads
            ):
                unused.append(qualname)
    assert unused == []


def test_every_imported_name_is_read_in_its_module():
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.partition(".")[0]
                    if bound not in read:
                        unread.append((path.name, bound))
    assert unread == []


def test_package_init_imports_nothing_and_assigns_only_the_version():
    # every name is imported from its defining module, never re-exported
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    assert not [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assigned = [
        target.id
        for node in ast.walk(tree)
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Name)
    ]
    assert assigned == ["__version__"]


def test_package_imports_only_the_standard_library():
    # absolute imports must name stdlib modules; relative ones stay in the package
    outside = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [
                (path.name, name)
                for name in names
                if name.partition(".")[0] not in sys.stdlib_module_names
            ]
    assert outside == []
