"""Static checks on the library's source.

The library holds only what a command, the acceptance gate or the benchmark
reaches: every top-level function, class and non-dunder method of
src/caloron is referenced from src/caloron (outside its own definition),
tests/test_acceptance.py or bench/*.py.

References are found statically: names, attributes, and string constants
that are dotted identifier paths (the benchmark's span targets name
functions as strings); an import alone is no reference.  A reference from
inside a definition that is itself unreached does not count, so a helper
whose only callers are unreached goes too.

The field-layer modules multiply no matrices with `@` or np.matmul: that is
one BLAS call per lattice point, with bits that depend on the BLAS kernel,
where lattice.su2_mul's fixed-order float arithmetic does not.  Nor do they
form what they throw away: a commutator is lattice.su2_commutator, not the
difference of two whole products, and a trace of a product is
lattice.su2_trace_mul, not trace2 of a whole product.

The error types are the CLI's outcomes: caloron.errors defines the base
CaloronError, ConfigError (exit 2) and only the types that an except clause
of cli.run tells apart, since no other caller tells one from another.
"""
import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = sorted((ROOT / "src" / "caloron").glob("*.py"))
CALLERS = [ROOT / "tests" / "test_acceptance.py", *sorted((ROOT / "bench").glob("*.py"))]

_DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _references(node: ast.AST) -> Counter:
    refs = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            refs[n.id] += 1
        elif isinstance(n, ast.Attribute):
            refs[n.attr] += 1
        elif (isinstance(n, ast.Constant) and isinstance(n.value, str)
              and _DOTTED.fullmatch(n.value)):
            refs.update(n.value.split("."))
    return refs


def _definitions(path: Path, roots: Counter) -> list:
    """(qualified name, name, references) per checked definition of one module.
    Module-level statements add to `roots`, since they run on import; a
    class's dunder methods, body statements, decorators and bases are the
    class's own references."""
    units = []
    for stmt in ast.parse(path.read_text()).body:
        if isinstance(stmt, _FUNCTIONS):
            units.append((f"{path.stem}.{stmt.name}", stmt.name, _references(stmt)))
            continue
        if not isinstance(stmt, ast.ClassDef):
            roots.update(_references(stmt))
            continue
        qual = f"{path.stem}.{stmt.name}"
        own = Counter()
        for item in stmt.body:
            if isinstance(item, _FUNCTIONS) and not (item.name.startswith("__")
                                                     and item.name.endswith("__")):
                units.append((f"{qual}.{item.name}", item.name, _references(item)))
            else:
                own.update(_references(item))
        for deco in stmt.decorator_list + stmt.bases:
            own.update(_references(deco))
        units.append((qual, stmt.name, own))
    return units


def unreached() -> list:
    """Qualified names of the library definitions nothing live refers to."""
    roots = Counter()
    for path in CALLERS:
        roots.update(_references(ast.parse(path.read_text())))
    live = [u for path in LIBRARY for u in _definitions(path, roots)]
    dead = []
    while True:
        total = roots.copy()
        for _, _, refs in live:
            total.update(refs)
        # a definition's references to its own name do not reach it
        gone = [u for u in live if total[u[1]] - u[2][u[1]] == 0]
        if not gone:
            return sorted(dead)
        dead += [q for q, _, _ in gone]
        live = [u for u in live if u not in gone]


def test_library_holds_only_reached_definitions():
    assert unreached() == []


# the modules whose pointwise products go through lattice.su2_mul, and whose
# commutators and traces of products go through su2_commutator and su2_trace_mul
FIELD_LAYER = [ROOT / "src" / "caloron" / f"{name}.py"
               for name in ("lattice", "transform", "chernweil")]


def _callee(node: ast.AST):
    """The called name of a call node (a bare or attribute name), else None."""
    if not isinstance(node, ast.Call):
        return None
    f = node.func
    return f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)


def matmul_sites(path: Path) -> list:
    """Line numbers of `@`, `@=` and calls of a `matmul` in one module."""
    lines = []
    for n in ast.walk(ast.parse(path.read_text())):
        if isinstance(n, (ast.BinOp, ast.AugAssign)) and isinstance(n.op, ast.MatMult):
            lines.append(n.lineno)
        elif _callee(n) == "matmul":
            lines.append(n.lineno)
    return lines


def test_field_layer_applies_no_matmul():
    assert {p.name: matmul_sites(p) for p in FIELD_LAYER} == {p.name: [] for p in FIELD_LAYER}


_PRODUCTS = ("su2_mul", "group_mul")


def wasted_product_sites(path: Path) -> list:
    """Line numbers in one module's functions of `P(a, b) - P(b, a)` and of
    `trace2(x)`, where P is su2_mul or group_mul and x is a P call or a name
    that the function assigns a P call to."""
    lines = []
    tree = ast.parse(path.read_text())
    for scope in (n for n in ast.walk(tree) if isinstance(n, _FUNCTIONS)):
        products = {t.id for n in ast.walk(scope) if isinstance(n, ast.Assign)
                    and _callee(n.value) in _PRODUCTS
                    for t in n.targets if isinstance(t, ast.Name)}
        for n in ast.walk(scope):
            if (isinstance(n, ast.BinOp) and isinstance(n.op, ast.Sub)
                    and _callee(n.left) in _PRODUCTS and _callee(n.right) in _PRODUCTS):
                lines.append(n.lineno)
            elif _callee(n) == "trace2" and n.args:
                arg = n.args[0]
                if _callee(arg) in _PRODUCTS or getattr(arg, "id", None) in products:
                    lines.append(n.lineno)
    return sorted(set(lines))


def test_field_layer_forms_no_discarded_entries():
    assert ({p.name: wasted_product_sites(p) for p in FIELD_LAYER}
            == {p.name: [] for p in FIELD_LAYER})


def _handled_names(handler: ast.ExceptHandler) -> set:
    """The names of the exception types one except clause catches."""
    types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return {t.attr if isinstance(t, ast.Attribute) else t.id for t in types}


def untold_error_types() -> list:
    """The classes of caloron.errors other than CaloronError and ConfigError
    that no except clause of cli.run names."""
    lib = ROOT / "src" / "caloron"
    defined = [n.name for n in ast.parse((lib / "errors.py").read_text()).body
               if isinstance(n, ast.ClassDef)]
    run = next(n for n in ast.parse((lib / "cli.py").read_text()).body
               if isinstance(n, _FUNCTIONS) and n.name == "run")
    told = {"CaloronError", "ConfigError"}.union(
        *(_handled_names(h) for h in ast.walk(run) if isinstance(h, ast.ExceptHandler)))
    return [name for name in defined if name not in told]


def test_error_types_are_the_cli_outcomes():
    assert untold_error_types() == []
