"""Source-level checks on the library package."""

import ast
import re
from pathlib import Path

import numpy as np

import stiefel_lab


def test_library_has_no_assert_statements():
    """Witness checks raise explicitly: `python -O` strips `assert`."""
    found = []
    for path in sorted(Path(stiefel_lab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def test_library_has_no_unused_imports():
    """Every name a module imports is used in it (the package's only lint)."""
    found = []
    for path in sorted(Path(stiefel_lab.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in used:
                        found.append(f"{path.name}:{node.lineno} {name}")
    assert found == []


def test_library_has_no_unreferenced_private_names():
    """Every `_`-prefixed function, method or attribute that the package
    defines is referenced on some line of the package other than the one
    that defines it."""
    paths = sorted(Path(stiefel_lab.__file__).parent.glob("*.py"))
    lines = [(path.name, number, line) for path in paths
             for number, line in enumerate(path.read_text().splitlines(), start=1)]
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = node.name
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                name = node.attr
            else:
                continue
            if not name.startswith("_") or name.startswith("__"):
                continue
            word = re.compile(rf"\b{name}\b")
            if not any(word.search(line) for where, number, line in lines
                       if (where, number) != (path.name, node.lineno)):
                found.append(f"{path.name}:{node.lineno} {name}")
    assert found == []


def test_library_methods_are_read_somewhere():
    """Every non-dunder method of a package class is read as an attribute
    (`x.name`) in the package, the tests or the benchmark; one never read is
    dead code."""
    paths = sorted(Path(stiefel_lab.__file__).parent.glob("*.py"))
    here = Path(__file__).parent
    readers = paths + sorted(here.glob("*.py")) + sorted((here.parent / "bench").glob("*.py"))
    read = {node.attr for path in readers
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    found = []
    for path in paths:
        for cls in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(cls, ast.ClassDef):
                found += [f"{path.name}:{node.lineno} {cls.name}.{node.name}"
                          for node in cls.body
                          if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                          and not (node.name.startswith("__") and node.name.endswith("__"))
                          and node.name not in read]
    assert found == []


# numpy's float and complex scalar types, by attribute name.
_NUMPY_FLOATS = re.compile(r"float\w*|complex\w*|c?double|c?longdouble|half|c?single")


def _is_float_dtype(node) -> bool:
    if isinstance(node, ast.Name):
        return node.id in ("float", "complex")
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return np.dtype(node.value).kind in "fc"
    return False


def _floating_point(tree) -> list[int]:
    """Lines with a float(...) call, a numpy float or complex type, or a
    float or complex dtype given as `dtype=` or to `.astype`."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            dtypes = [k.value for k in node.keywords if k.arg == "dtype"]
            if isinstance(func, ast.Attribute) and func.attr == "astype":
                dtypes += node.args[:1]
            bad = (isinstance(func, ast.Name) and func.id == "float") \
                or any(_is_float_dtype(d) for d in dtypes)
        elif isinstance(node, ast.Attribute):
            bad = isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy") \
                and bool(_NUMPY_FLOATS.fullmatch(node.attr))
        else:
            continue
        if bad:
            lines.append(node.lineno)
    return sorted(set(lines))


def test_library_has_no_floating_point():
    """Exact arithmetic only: a float-BLAS shortcut would show up as one of
    these.  `math.inf` sentinels and `float` in annotations stay allowed."""
    sample = ast.parse("a = float(x)\n"
                       "b = np.float64\n"
                       "c = x.astype('f8')\n"
                       "d = np.zeros(3, dtype=complex)\n"
                       "e = numpy.longdouble(1)\n"
                       "f = x.astype(np.uint8) @ y.astype(bool)\n"
                       "g: float = math.inf\n"
                       "h = np.zeros(3, dtype='<u8')\n")
    assert _floating_point(sample) == [1, 2, 3, 4, 5]
    found = []
    for path in sorted(Path(stiefel_lab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{line}" for line in _floating_point(tree)]
    assert found == []


def _bulk_remainders(tree) -> list[int]:
    """Lines with a `%` whose left operand is a matrix product or an
    `np.*` call: a bulk array remainder."""
    def bulk(node) -> bool:
        if isinstance(node, ast.BinOp):
            return isinstance(node.op, ast.MatMult)
        return isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
            and isinstance(node.func.value, ast.Name) and node.func.value.id in ("np", "numpy")
    return sorted({node.lineno for node in ast.walk(tree) if isinstance(node, ast.BinOp)
                   and isinstance(node.op, ast.Mod) and bulk(node.left)})


def test_bulk_reductions_go_through_gfnum_mod():
    """numpy's integer `%` is several times slower than its floor division,
    so bulk reductions use `gfnum.mod`; a scalar `%` stays allowed."""
    sample = ast.parse("a = x @ y % p\n"
                       "b = np.einsum('ij,j', x, y) % p\n"
                       "c = (x @ y) % p\n"
                       "d = x % p\n"
                       "e = gfnum.mod(x @ y, p)\n"
                       "f = f'{x % p}'\n"
                       "g = x.sum() % p\n")
    assert _bulk_remainders(sample) == [1, 2, 3]
    found = []
    for path in sorted(Path(stiefel_lab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{line}" for line in _bulk_remainders(tree)]
    assert found == []


def test_tests_have_no_vacuous_asserts():
    """No test asserts a literal `True`, alone or as an operand of `or`."""
    found = []
    for path in sorted(Path(__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Assert):
                continue
            test = node.test
            is_or = isinstance(test, ast.BoolOp) and isinstance(test.op, ast.Or)
            operands = test.values if is_or else [test]
            if any(isinstance(v, ast.Constant) and v.value is True for v in operands):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def _defaults(tree):
    """(callable name, parameter, position after self or None) for every
    parameter with a default; `__init__` is called by its class name."""
    for owner in ast.walk(tree):
        for node in ast.iter_child_nodes(owner):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            method = isinstance(owner, ast.ClassDef)
            name = owner.name if method and node.name == "__init__" else node.name
            positional = node.args.posonlyargs + node.args.args
            first = len(positional) - len(node.args.defaults)
            for k in range(first, len(positional)):
                yield name, positional[k].arg, k - int(method)
            for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
                if default is not None:
                    yield name, arg.arg, None


def test_library_defaults_are_set_by_some_caller():
    """Every parameter default in the package is overridden by some call in
    the package, the tests or the benchmark; one never set is a constant.
    Calls are matched by name, and a call with `*` or `**` sets everything."""
    paths = sorted(Path(stiefel_lab.__file__).parent.glob("*.py"))
    here = Path(__file__).parent
    callers = paths + sorted(here.glob("*.py")) + sorted((here.parent / "bench").glob("*.py"))
    calls: dict[str, list] = {}
    for path in callers:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            starred = any(isinstance(a, ast.Starred) for a in node.args) \
                or any(k.arg is None for k in node.keywords)
            calls.setdefault(name, []).append(
                (starred, len(node.args), {k.arg for k in node.keywords}))
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        for name, param, position in _defaults(tree):
            if not any(starred or param in keywords
                       or (position is not None and position < npos)
                       for starred, npos, keywords in calls.get(name, [])):
                found.append(f"{path.name} {name}({param})")
    assert found == []



def _imported_modules(node):
    """The modules an import statement imports from; none for other nodes."""
    if isinstance(node, ast.ImportFrom):
        return {"." * node.level + (node.module or "")}
    if isinstance(node, ast.Import):
        return {alias.name for alias in node.names}
    return set()


def test_library_has_no_local_reimports():
    """No function imports from a module that its own module already imports
    from at top level: those names belong in the top-level import.  Local
    imports of other modules (cycle breakers, rarely used ones) stay."""
    found = set()
    for path in sorted(Path(stiefel_lab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        top = set().union(*(_imported_modules(node) for node in tree.body))
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found |= {f"{path.name}:{node.lineno}" for node in ast.walk(func)
                          if top & _imported_modules(node)}
    assert sorted(found) == []


def _place_values(tree) -> list[int]:
    """Lines that raise something to the power of an `np.arange(...)`."""
    return sorted({node.lineno for node in ast.walk(tree)
                   if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
                   and isinstance(node.right, ast.Call)
                   and getattr(node.right.func, "attr", None) == "arange"})


def test_row_codes_have_one_home():
    """Place values of an int64 row code are built only by `gfnum.code_weights`,
    so every F_p row lookup shares one code and one int64 refusal."""
    sample = ast.parse("w = p ** np.arange(k - 1, -1, -1)\n"
                       "x = 3 ** numpy.arange(4)\n"
                       "y = np.arange(4) ** 2\n")
    assert _place_values(sample) == [1, 2]
    found = []
    for path in sorted(Path(stiefel_lab.__file__).parent.glob("*.py")):
        if path.name != "gfnum.py":
            tree = ast.parse(path.read_text(), filename=str(path))
            found += [f"{path.name}:{line}" for line in _place_values(tree)]
    assert found == []
    assert _place_values(ast.parse((Path(stiefel_lab.__file__).parent / "gfnum.py")
                                   .read_text()))


def _vector_tables(tree) -> list[int]:
    """Lines that call `np.indices` (or `numpy.indices`)."""
    return sorted({node.lineno for node in ast.walk(tree)
                   if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                   and node.func.attr == "indices"
                   and getattr(node.func.value, "id", None) in ("np", "numpy")})


def test_vector_table_has_one_home():
    """Only `gfnum.all_vectors` builds a table of every vector with
    `np.indices`, so its budget refusal covers every residue scan."""
    sample = ast.parse("X = np.indices((p,) * n)\n"
                       "Y = numpy.indices((3, 3))\n"
                       "Z = frame.indices(4)\n")
    assert _vector_tables(sample) == [1, 2]
    found = []
    for path in sorted(Path(stiefel_lab.__file__).parent.glob("*.py")):
        if path.name != "gfnum.py":
            tree = ast.parse(path.read_text(), filename=str(path))
            found += [f"{path.name}:{line}" for line in _vector_tables(tree)]
    assert found == []
    assert _vector_tables(ast.parse((Path(stiefel_lab.__file__).parent / "gfnum.py")
                                    .read_text()))


def _newton_steps(tree) -> list[int]:
    """Lines of a `pow(_, -1, _)` call inside a `for` or `while` loop."""
    lines = set()
    for loop in ast.walk(tree):
        if not isinstance(loop, (ast.For, ast.AsyncFor, ast.While)):
            continue
        for node in ast.walk(loop):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "pow" \
                    and len(node.args) == 3 and isinstance(node.args[1], ast.UnaryOp) \
                    and isinstance(node.args[1].op, ast.USub) \
                    and getattr(node.args[1].operand, "value", None) == 1:
                lines.add(node.lineno)
    return sorted(lines)


def test_newton_lifting_has_one_home():
    """Only `rings.hensel_root` lifts roots by repeated inverses mod p^N, so
    every Hensel step in the package shares one Newton loop."""
    sample = ast.parse("for _ in range(k):\n"
                       "    r = (r - f * pow(d, -1, m)) % m\n"
                       "while f:\n"
                       "    if f: r -= pow(d, -1, m)\n"
                       "k = pow(s, -1, m)\n"
                       "for x in xs:\n"
                       "    y = pow(x, 2, m)\n")
    assert _newton_steps(sample) == [2, 4]
    found = []
    for path in sorted(Path(stiefel_lab.__file__).parent.glob("*.py")):
        if path.name != "rings.py":
            tree = ast.parse(path.read_text(), filename=str(path))
            found += [f"{path.name}:{line}" for line in _newton_steps(tree)]
    assert found == []
    assert _newton_steps(ast.parse((Path(stiefel_lab.__file__).parent / "rings.py")
                                   .read_text()))


def _residue_kind_tests(tree) -> list[int]:
    """Lines comparing a `.kind` against a tuple naming both LOCALIZED and
    PADIC, bare or as module attributes."""
    lines = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Compare) and isinstance(node.left, ast.Attribute)
                and node.left.attr == "kind"):
            continue
        for comp in node.comparators:
            if isinstance(comp, ast.Tuple):
                names = {getattr(e, "id", None) or getattr(e, "attr", None) for e in comp.elts}
                if {"LOCALIZED", "PADIC"} <= names:
                    lines.append(node.lineno)
    return lines


def test_residue_field_rings_have_one_home():
    """Which rings have a residue field is answered by `rings` alone:
    elsewhere `ring.residue_ring()` or `ring.p` says it, not a kind test."""
    sample = ast.parse("if ring.kind in (LOCALIZED, PADIC): pass\n"
                       "ok = x.ring.kind not in (rings.PADIC, FINITE_FIELD, rings.LOCALIZED)\n"
                       "if ring.kind in (RATIONALS, LOCALIZED): pass\n"
                       "if kind in (LOCALIZED, PADIC): pass\n"
                       "if ring.kind == PADIC: pass\n")
    assert _residue_kind_tests(sample) == [1, 2]
    found = []
    for path in sorted(Path(stiefel_lab.__file__).parent.glob("*.py")):
        if path.name != "rings.py":
            tree = ast.parse(path.read_text(), filename=str(path))
            found += [f"{path.name}:{line}" for line in _residue_kind_tests(tree)]
    assert found == []
    assert _residue_kind_tests(ast.parse((Path(stiefel_lab.__file__).parent / "rings.py")
                                         .read_text()))


def _budget_messages(tree) -> list[tuple[int, str]]:
    """(line, leading literal text) of every `raise BudgetError(...)` whose
    message starts with literal text: a plain string, or an f-string's
    text before its first placeholder."""
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                and getattr(node.exc.func, "id", None) == "BudgetError" and node.exc.args):
            continue
        message = node.exc.args[0]
        if isinstance(message, ast.JoinedStr) and message.values:
            message = message.values[0]
        if isinstance(message, ast.Constant) and isinstance(message.value, str):
            found.append((node.lineno, message.value))
    return found


def test_budget_refusals_are_tested():
    """The leading text of every budget refusal in the package appears in
    some test file, so each refusal is raised and read by a test."""
    sample = ast.parse("raise BudgetError(f'table of {n} rows refused')\n"
                       "raise BudgetError('cap exceeded')\n"
                       "raise BudgetError(f'{n} rows')\n"
                       "raise ValueError('not a budget')\n")
    assert _budget_messages(sample) == [(1, "table of "), (2, "cap exceeded")]
    here = Path(__file__)
    tests = "".join(path.read_text() for path in sorted(here.parent.glob("test_*.py"))
                    if path != here)
    found = []
    for path in sorted(Path(stiefel_lab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{line} {text!r}" for line, text in _budget_messages(tree)
                  if text not in tests]
    assert found == []
