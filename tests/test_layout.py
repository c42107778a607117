"""Package layout: every top-level function and class in ``src/gossipwatch``
is used by code of the package itself, and every defaulted parameter of a
top-level function is passed by some call in the package.  Code that only
tests use belongs in ``tests/`` (``tests/oracles.py`` holds the reference
implementations), and every top-level function and class there is used by
some test.  Every C entry of ``_gossip_loop.c`` is bound with its full
argument list, that file is the one C source and protocol alone builds it,
numpy's OpenBLAS is named and opened only in ``neural._blas``, the declared
numpy floor bundles that library, one module alone forks worker processes,
none starts a thread, and the README's module table lists exactly the
package's modules."""

import ast
import re
from pathlib import Path

from gossipwatch import protocol

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "gossipwatch"
README = TESTS.parent / "README.md"

# Top-level names that may stay in src/ without a user there.
ALLOWED: set[str] = set()

# Defaulted parameters that no call in src/ passes, with the reason they stay.
ALLOWED_DEFAULTS = {
    ("build_dataset", "chunk"): "tests use it to prove that rows do not depend on chunking",
    ("main", "argv"): "the command-line entry point: tests and the benchmark pass argv",
}


def _trees() -> dict[str, ast.Module]:
    return {
        path.name: ast.parse(path.read_text(), filename=str(path))
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    }


def _annotation_nodes(tree) -> set[int]:
    """ids of every node inside an annotation; with postponed evaluation
    annotations never run, so they are not uses."""
    roots = []
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            roots.append(node.annotation)
        elif isinstance(node, ast.FunctionDef) and node.returns:
            roots.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            roots.append(node.annotation)
    return {id(sub) for root in roots for sub in ast.walk(root)}


def _used_names(stmt, skip: set[int]) -> set[str]:
    """Names and attribute names that ``stmt`` evaluates.  Imports are not
    uses: an imported name counts where the importer uses it."""
    names = set()
    for node in ast.walk(stmt):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _unused(trees: dict[str, ast.Module], defining) -> list[str]:
    """Top-level functions and classes of the modules named in ``defining``
    that no top-level statement of ``trees`` uses, other than themselves."""
    uses = {
        id(stmt): _used_names(stmt, skip)
        for tree in trees.values()
        for skip in [_annotation_nodes(tree)]
        for stmt in tree.body
    }
    definitions = [
        (module, stmt)
        for module in defining
        for stmt in trees[module].body
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and stmt.name not in ALLOWED
    ]
    # A name used only by unused code is unused too: drop dead definitions
    # until none is left to drop.
    dead: set[int] = set()
    while True:
        newly = {
            id(d)
            for _, d in definitions
            if id(d) not in dead
            and not any(
                d.name in names
                for key, names in uses.items()
                if key != id(d) and key not in dead
            )
        }
        if not newly:
            break
        dead |= newly
    return [f"{m}:{d.lineno} {d.name}" for m, d in definitions if id(d) in dead]


def test_every_top_level_name_has_a_user_in_the_package():
    trees = _trees()
    unused = _unused(trees, trees)
    assert not unused, "not used in src/gossipwatch outside __init__.py: " + ", ".join(unused)


def test_every_oracle_has_a_user_in_the_tests():
    trees = {
        path.name: ast.parse(path.read_text(), filename=str(path))
        for path in [TESTS / "oracles.py", *sorted(TESTS.glob("test_*.py"))]
    }
    unused = _unused(trees, ["oracles.py"])
    assert not unused, "not used by any tests/test_*.py: " + ", ".join(unused)


def _passes(call: ast.Call, fn: ast.FunctionDef, name: str) -> bool:
    """Whether ``call`` of ``fn`` may pass its parameter ``name``."""
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    if any(k.arg in (name, None) for k in call.keywords):
        return True
    positional = [a.arg for a in fn.args.posonlyargs + fn.args.args]
    return name in positional and positional.index(name) < len(call.args)


def test_every_defaulted_parameter_is_passed_in_the_package():
    trees = _trees()
    calls: dict[str, list[ast.Call]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    unpassed = []
    for module, tree in trees.items():
        for fn in tree.body:
            if not isinstance(fn, ast.FunctionDef):
                continue
            positional = fn.args.posonlyargs + fn.args.args
            defaulted = positional[len(positional) - len(fn.args.defaults):] + [
                a for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d is not None
            ]
            for arg in defaulted:
                if (fn.name, arg.arg) in ALLOWED_DEFAULTS:
                    continue
                if not any(_passes(c, fn, arg.arg) for c in calls.get(fn.name, [])):
                    unpassed.append(f"{module}:{fn.lineno} {fn.name}({arg.arg}=)")
    assert not unpassed, "defaulted but never passed in src/gossipwatch: " + ", ".join(unpassed)


def test_every_c_entry_is_bound_with_all_its_arguments():
    """Every non-static function of _gossip_loop.c has argtypes in
    protocol._compiled_loop, one per C parameter: without them ctypes passes
    each argument as a C int, which garbles 64-bit integers and pointers."""
    source = re.sub(r"/\*.*?\*/", "", (PACKAGE / "_gossip_loop.c").read_text(), flags=re.S)
    entries = {
        name: [p for p in params.split(",") if p.strip() not in ("", "void")]
        for name, params in re.findall(
            r"^(?!static\b)[A-Za-z_][\w *]*?\b(\w+)\(([^)]*)\)\s*\{", source, flags=re.M
        )
    }
    assert {
        "gossip_loop", "draw_problems", "seed_states", "net_forward", "net_output", "net_backward"
    } <= entries.keys()
    lib = protocol._compiled_loop()
    unbound = [
        f"{name} ({len(params)} parameters)"
        for name, params in entries.items()
        if len(getattr(lib, name).argtypes or ()) != len(params)
    ]
    assert not unbound, "without matching argtypes: " + ", ".join(unbound)


def test_one_c_library_built_only_by_protocol():
    """The network step lives in the gossip kernel's C source, the package's
    only one, which protocol._compiled_loop alone builds (with _CC); neural
    takes its entries from there, so there is no second build path."""
    assert [path.name for path in PACKAGE.glob("*.c")] == ["_gossip_loop.c"]
    builders = {
        path.name
        for path in PACKAGE.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and "subprocess" in [a.name for a in node.names] + [getattr(node, "module", None)]
    }
    assert builders == {"protocol.py"}
    tree = ast.parse((PACKAGE / "neural.py").read_text())
    imports = [n for n in tree.body if isinstance(n, ast.ImportFrom)]
    assert any(n.module == "gossipwatch.protocol" and n.names[0].name == "_compiled_loop"
               for n in imports)


def test_the_blas_symbols_are_looked_up_in_one_place():
    """numpy's bundled OpenBLAS is opened, and its symbols named, only in
    neural._blas, which pins its thread count and raises the error that
    names a missing library or symbol; the only other library opened is
    the kernel's own."""
    places = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for top in tree.body:
            for node in ast.walk(top):
                # a library or symbol name, not prose (a docstring) about one
                named = isinstance(node, ast.Constant) and isinstance(node.value, str) and (
                    re.search(r"scipy_\w*blas", node.value) and not re.search(r"\s", node.value)
                )
                opens = isinstance(node, ast.Attribute) and node.attr == "CDLL"
                if named or opens:
                    kind = "CDLL" if opens else "symbol"
                    places.add((path.name, getattr(top, "name", None), kind))
    assert places == {
        ("neural.py", "_blas", "symbol"), ("neural.py", "_blas", "CDLL"),
        ("protocol.py", "_compiled_loop", "CDLL"),
    }


def test_the_numpy_floor_ships_the_bundled_openblas():
    """numpy's Linux, Windows and x86-64 macOS wheels bundle
    libscipy_openblas64_ from 2.0 on: the declared floor must not go below
    it."""
    text = (TESTS.parent / "pyproject.toml").read_text()
    floor = re.search(r'"numpy>=(\d+)\.(\d+)', text)
    assert floor and (int(floor[1]), int(floor[2])) >= (2, 0)


def test_the_kernel_is_built_without_value_changing_flags():
    """protocol._CC keeps -ffp-contract=off and holds no flag that lets the
    compiler reassociate, fuse or approximate floating-point operations, or
    that targets the building host's CPU: the kernel's bits, and the
    portable cache key that names its library, depend on the flags."""
    flags = set(protocol._CC)
    assert [f for f in protocol._CC if f.startswith("-ffp-contract")] == ["-ffp-contract=off"]
    changing = {
        "-ffast-math", "-Ofast", "-funsafe-math-optimizations", "-fassociative-math",
        "-freciprocal-math", "-march=native", "-mtune=native", "-mcpu=native",
    }
    assert not flags & changing, sorted(flags & changing)


def test_only_the_fan_out_module_starts_processes():
    """Dataset chunks and network fits share fanout.fan_out: no other module
    calls os.fork or imports multiprocessing or concurrent.futures, so a
    second fan-out does not creep back."""
    pools = ("multiprocessing", "concurrent")
    forking = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                forks = any(alias.name.split(".")[0] in pools for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                forks = (node.module or "").split(".")[0] in pools
            else:
                forks = isinstance(node, ast.Attribute) and node.attr == "fork"
            if forks:
                forking.add(path.name)
    assert forking == {"fanout.py"}


def test_nothing_in_the_package_starts_a_thread():
    """fanout.fan_out is the one way the package uses more than one CPU:
    the gossip kernel runs on its caller's thread, so its C source names no
    pthread, protocol._CC does not link it, and no module imports
    threading."""
    assert "pthread" not in (PACKAGE / "_gossip_loop.c").read_text()
    assert "-pthread" not in protocol._CC
    threading = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] in ("threading", "_thread") for name in names):
                threading.add(path.name)
    assert not threading, sorted(threading)


def test_the_readme_module_table_lists_exactly_the_package_modules():
    """Each row of the README's module table names one module of
    src/gossipwatch, and each module (other than __init__) has one row, so
    the table cannot go stale when a module is added, removed or renamed."""
    rows = re.findall(r"^\| `gossipwatch\.(\w+)` \|", README.read_text(), flags=re.M)
    modules = [path.stem for path in PACKAGE.glob("*.py") if path.name != "__init__.py"]
    assert sorted(rows) == sorted(modules)
