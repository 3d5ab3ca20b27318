"""No dead names in the package: every function and class defined in
``src/operadkit`` is referenced somewhere in ``src/operadkit`` (called,
read as an attribute, or imported) outside its own body, so a second copy
of a job cannot linger once its last caller is gone, even if it calls
itself.  Dunder methods are called by Python itself and are not counted.
Every name in ``operadkit.__all__`` must also exist, so a star import
cannot fail on an export whose code has moved."""

import ast
import os

SRC = os.path.join(os.path.dirname(__file__), "..", "src", "operadkit")

# Used from outside the package only: the operad harness adapters the tests
# drive, and the rational boundary views of a cactus.
ALLOWED = {
    "operad_instance",
    "bv_operad_instance",
    "cacti_operad_instance",
    "eval",
    "perimeter",
    "lobe_length",
}


def _trees():
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name)) as f:
                yield name, ast.parse(f.read(), name)


def _defined_and_referenced(trees=None):
    """Defined names, and the names referenced outside their own bodies: a
    recursive call does not keep a function alive."""
    defined, referenced = [], set()

    def visit(module, node, inside):
        names = ()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.append((module, node.name))
            inside = inside | {node.name}
        elif isinstance(node, ast.Name):
            names = (node.id,)
        elif isinstance(node, ast.Attribute):
            names = (node.attr,)
        elif isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
        referenced.update(name for name in names if name not in inside)
        for child in ast.iter_child_nodes(node):
            visit(module, child, inside)

    for module, tree in trees or _trees():
        visit(module, tree, frozenset())
    return defined, referenced


def test_every_function_and_class_in_src_has_a_reference_in_src():
    defined, referenced = _defined_and_referenced()
    assert len(defined) > 100
    dead = sorted(
        "%s:%s" % (module, name)
        for module, name in defined
        if name not in referenced
        and name not in ALLOWED
        and not (name.startswith("__") and name.endswith("__"))
    )
    assert not dead, "defined in src but referenced nowhere in src: %s" % ", ".join(dead)


def test_a_recursive_call_does_not_keep_a_function_alive():
    source = (
        "def orphan(t):\n"
        "    return t if t < 1 else orphan(t - 1)\n"
        "def used():\n"
        "    return 0\n"
        "used()\n"
    )
    defined, referenced = _defined_and_referenced([("m.py", ast.parse(source))])
    assert defined == [("m.py", "orphan"), ("m.py", "used")]
    assert referenced == {"t", "used"}


def test_every_exported_name_is_an_attribute_of_the_package():
    import operadkit

    star = {}
    exec("from operadkit import *", star)
    assert operadkit.__all__
    missing = [name for name in operadkit.__all__ if not hasattr(operadkit, name)]
    assert not missing, "named in operadkit.__all__ but not defined: %s" % ", ".join(missing)
    assert set(operadkit.__all__) <= set(star)


def test_the_allowlist_names_only_defined_unreferenced_names():
    defined, referenced = _defined_and_referenced()
    assert ALLOWED <= {name for _, name in defined}
    assert not ALLOWED & referenced
