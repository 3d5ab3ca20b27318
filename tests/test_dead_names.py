"""No dead names in the package: every function and class defined in
``src/operadkit`` is referenced somewhere in ``src/operadkit`` (called,
read as an attribute, or imported) outside its own body, so a second copy
of a job cannot linger once its last caller is gone, even if it calls
itself.  Dunder methods are called by Python itself and are not counted.
Every name in ``operadkit.__all__`` must also exist, so a star import
cannot fail on an export whose code has moved; the exports are the model
classes, ``Q`` and ``__version__``.  And no option is dead: every defaulted
parameter of a function or ``__init__`` in the package is set by some call
in ``src`` or ``perfbench``, so an option only a test sets is found too.
Then every ``.count(ok, witness, *args)`` in the package passes its witness
as a format string and its args, which ``CheckReport.count`` formats only
for a failing case: a conditional or a literal None as the witness is the
hand-rolled form that formatted it eagerly or left it unnamed.  And no
function body imports: ``operadkit`` loads every layer eagerly, so each
module imports what it uses once, at its top.  Every ``lru_cache`` in the
package has an int maxsize, so no cache grows with its input for the life
of the process, but for the few allowlisted with their reasons.  Last, no
module reads ``randrange`` or ``randint``: every bounded draw goes through
``operads.randbelow``, which draws what they draw, with no allowlist."""

import ast
import os
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(__file__), "..")
SRC = os.path.join(ROOT, "src", "operadkit")
# The folders whose calls keep an option alive; a call in tests does not.
CALLERS = [os.path.join("src", "operadkit"), "perfbench"]

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

# Options no call in src or perfbench sets: the bracket degree of the gravity
# checks, which the reports run at b = 1 and the tier-1 tests alone run at
# b = 3 to verify the odd-b claims.
OPTIONS_SET_BY_TESTS = {
    "gravity.py:check_free_module(b)",
    "gravity.py:verify_generalized_jacobi(b)",
    "gravity.py:check_suboperad_closure(b)",
    "gravity.py:check_lie_embedding(b)",
    "gravity.py:check_generation(b)",
}

# Caches with no int maxsize, each with its reason.
UNBOUNDED_CACHES = {
    "poisson.py:tree_nleaves": "one int per tree, read for the degree of every block",
    "poisson.py:tree_min": "one int per tree, read by every sort of blocks",
    "poisson.py:tree_bracket": "its recursion shares sub-brackets, and the intern table "
    "lives as long as it",
    "cacti.py:_unit_rows": "one k x k table per arity met, no larger than one diagonal",
}


def _trees(folder=SRC):
    for name in sorted(os.listdir(folder)):
        if name.endswith(".py"):
            with open(os.path.join(folder, name)) as f:
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


def _options(trees):
    """(module, called name, parameter, positional index or None) for each
    defaulted parameter.  An ``__init__`` is called by its class's name,
    and a method's positionals are offset by one for ``self``; keyword-only
    parameters have no index.  Other dunder methods are skipped."""
    for module, tree in trees:
        owner = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                owner.update((item, node.name) for item in node.body)
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            if node.name.startswith("__") and node.name != "__init__":
                continue
            static = any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
            offset = 1 if node in owner and not static else 0
            name = owner[node] if node.name == "__init__" else node.name
            args = node.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            for index in range(first, len(positional)):
                yield module, name, positional[index].arg, index - offset
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield module, name, arg.arg, None


def _calls(trees):
    """Per called name, matched by name alone: the most positionals any
    call passes and every keyword any call names.  A ``*args`` counts as
    every positional and a ``**kwargs`` as every keyword (None)."""
    calls = {}
    for _, tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            entry = calls.setdefault(name, [0, set()])
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            entry[0] = max(entry[0], float("inf") if starred else len(node.args))
            entry[1].update(k.arg for k in node.keywords)
    return calls


def _calling(root=ROOT):
    return [tree for folder in CALLERS for tree in _trees(os.path.join(root, folder))]


def _unset_options(defining, calling):
    calls = _calls(calling)
    unset = []
    for module, name, param, index in _options(defining):
        most, keywords = calls.get(name, (0, set()))
        if not (param in keywords or None in keywords or (index is not None and most > index)):
            unset.append("%s:%s(%s)" % (module, name, param))
    return unset


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
    functions = [
        name
        for name in operadkit.__all__
        if name not in ("__version__", "Q") and not isinstance(getattr(operadkit, name), type)
    ]
    assert not functions, "exported but not a class: %s" % ", ".join(functions)
    # A fresh interpreter, since this one has long imported every layer.
    layers = ["bv", "cacti", "exact", "gravity", "groups", "operads", "poisson", "stringbr"]
    probe = "import sys, operadkit; print(' '.join(sorted(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    assert [name for name in layers if "operadkit." + name not in out] == []


def test_the_allowlist_names_only_defined_unreferenced_names():
    defined, referenced = _defined_and_referenced()
    assert ALLOWED <= {name for _, name in defined}
    assert not ALLOWED & referenced


def test_every_option_in_src_is_set_by_some_call():
    assert len(list(_options(_trees()))) > 50
    unset = _unset_options(_trees(), _calling())
    assert OPTIONS_SET_BY_TESTS <= set(unset)
    unset = [option for option in unset if option not in OPTIONS_SET_BY_TESTS]
    assert not unset, "defaulted but set by no call in src or perfbench: %s" % ", ".join(unset)


def test_an_option_no_call_sets_is_found(tmp_path):
    defining = (
        "def tom_dieck_summands(G, max_order=64):\n"
        "    pass\n"
        "def gravity_basis(k, b=1, renormalize=False):\n"
        "    return gravity_basis(k, b)\n"
        "class OperadInstance:\n"
        "    def __init__(self, name, compose, degree=None, scale=None, unit=None):\n"
        "        pass\n"
        "    def check(self, cases, seed=0, *, strict=False):\n"
        "        pass\n"
    )
    calling = (
        "OperadInstance('e', compose_i, degree=len, unit=1).check([], 1)\n"
        "gravity_basis(4, 3)\n"
    )
    for folder, source in [
        (CALLERS[0], calling),
        (CALLERS[1], ""),
        ("tests", "tom_dieck_summands(symmetric(4), max_order=16)\n"),
    ]:
        (tmp_path / folder).mkdir(parents=True)
        (tmp_path / folder / "t.py").write_text(source)
    unset = _unset_options([("m.py", ast.parse(defining))], _calling(tmp_path))
    assert unset == [
        "m.py:tom_dieck_summands(max_order)",
        "m.py:gravity_basis(renormalize)",
        "m.py:OperadInstance(scale)",
        "m.py:check(strict)",
    ]


def _hand_rolled_witnesses(trees):
    """``module:line`` of each ``.count(...)`` call whose witness, the second
    positional or the ``witness`` keyword, is a conditional or a literal
    None."""
    found = []
    for module, tree in trees:
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "count"):
                continue
            witnesses = node.args[1:2] + [k.value for k in node.keywords if k.arg == "witness"]
            if any(
                isinstance(w, ast.IfExp) or (isinstance(w, ast.Constant) and w.value is None)
                for w in witnesses
            ):
                found.append("%s:%d" % (module, node.lineno))
    return found


def test_every_witness_in_src_is_a_lazy_format():
    found = _hand_rolled_witnesses(_trees())
    assert not found, "witness is a conditional or None: %s" % ", ".join(found)


def test_a_hand_rolled_witness_is_found():
    source = (
        "rep.count(ok, None if ok else 'x=%r' % (x,))\n"
        "rep.count(True, None)\n"
        "rep.count(ok, witness='a' if ok else 'b')\n"
        "rep.count(ok, 'x=%r', x)\n"
        "rep.count(True)\n"
        "names.count(None)\n"
    )
    assert _hand_rolled_witnesses([("m.py", ast.parse(source))]) == ["m.py:1", "m.py:2", "m.py:3"]


def _function_local_imports(trees):
    """``module:line`` of each ``import`` or ``from ... import`` inside a
    function body, methods and nested functions included."""
    found = []
    for module, tree in trees:
        lines = {
            inner.lineno
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            for inner in ast.walk(node)
            if isinstance(inner, (ast.Import, ast.ImportFrom))
        }
        found.extend("%s:%d" % (module, line) for line in sorted(lines))
    return found


def test_no_function_in_src_imports():
    found = _function_local_imports(_trees())
    assert not found, "import inside a function body: %s" % ", ".join(found)


def test_a_function_local_import_is_found():
    source = (
        "import os\n"
        "from . import bv\n"
        "def f():\n"
        "    from .poisson import gen\n"
        "    return gen\n"
        "class C:\n"
        "    def m(self):\n"
        "        def inner():\n"
        "            import json\n"
        "        return inner\n"
        "if os:\n"
        "    import sys\n"
    )
    assert _function_local_imports([("m.py", ast.parse(source))]) == ["m.py:4", "m.py:9"]


def _unbounded_caches(trees):
    """``module:function`` of each function under an ``lru_cache`` or
    ``cache`` decorator whose maxsize is not an int literal: ``cache``, a
    bare ``lru_cache``, None or a computed size."""
    found = []
    for module, tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for decorator in node.decorator_list:
                call = decorator if isinstance(decorator, ast.Call) else None
                target = call.func if call else decorator
                name = getattr(target, "id", None) or getattr(target, "attr", None)
                if name not in ("lru_cache", "cache"):
                    continue
                sizes = []
                if call:
                    sizes = call.args[:1] + [k.value for k in call.keywords if k.arg == "maxsize"]
                if not any(isinstance(v, ast.Constant) and type(v.value) is int for v in sizes):
                    found.append("%s:%s" % (module, node.name))
    return found


def test_every_cache_in_src_is_bounded():
    found = set(_unbounded_caches(_trees()))
    unbounded = sorted(found - set(UNBOUNDED_CACHES))
    assert not unbounded, "lru_cache with no int maxsize: %s" % ", ".join(unbounded)
    stale = sorted(set(UNBOUNDED_CACHES) - found)
    assert not stale, "allowlisted but not an unbounded cache: %s" % ", ".join(stale)


def test_an_unbounded_cache_is_found():
    source = (
        "import functools\n"
        "from functools import cache, lru_cache\n"
        "@lru_cache(maxsize=None)\n"
        "def a(t): pass\n"
        "@functools.lru_cache\n"
        "def b(t): pass\n"
        "@cache\n"
        "def c(t): pass\n"
        "@lru_cache(maxsize=1024)\n"
        "def d(t): pass\n"
        "@functools.lru_cache(256, typed=True)\n"
        "def e(t): pass\n"
        "@lru_cache(maxsize=LIMIT)\n"
        "def f(t): pass\n"
        "class K:\n"
        "    @staticmethod\n"
        "    @lru_cache(maxsize=True)\n"
        "    def g(t): pass\n"
        "@staticmethod\n"
        "def h(t): pass\n"
    )
    found = _unbounded_caches([("m.py", ast.parse(source))])
    assert found == ["m.py:a", "m.py:b", "m.py:c", "m.py:f", "m.py:g"]


def _direct_draws(trees):
    """``module:line`` of each ``randrange`` or ``randint`` read off an
    object, called or passed on, or imported from ``random``."""
    found = []
    for module, tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.ImportFrom) and node.module == "random":
                names = [alias.name for alias in node.names]
            else:
                continue
            if {"randrange", "randint"}.intersection(names):
                found.append((module, node.lineno))
    return ["%s:%d" % pair for pair in sorted(found)]


def test_every_bounded_draw_in_src_goes_through_randbelow():
    found = _direct_draws(_trees())
    assert not found, "draw outside operads.randbelow: %s" % ", ".join(found)


def test_a_direct_draw_is_found():
    source = (
        "import random\n"
        "x = rng.randrange(5)\n"
        "y = random.randint(1, 2)\n"
        "z = self.rng.randrange(3)\n"
        "t = tuple(map(rng.randrange, sizes))\n"
        "from random import randint, shuffle\n"
        "u = randbelow(rng, 5)\n"
        "v = 1 + randbelow(self.rng, 3)\n"
        "w = rng.sample(range(4), 2)\n"
    )
    found = _direct_draws([("m.py", ast.parse(source))])
    assert found == ["m.py:2", "m.py:3", "m.py:4", "m.py:5", "m.py:6"]
