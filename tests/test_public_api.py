"""The package's public names: each listed once, each resolvable, none unlisted."""
import ast
import re
import types
from pathlib import Path

import l1torus


def test_all_lists_every_public_name_once():
    listed = l1torus.__all__
    assert len(listed) == len(set(listed)), "duplicates in __all__"
    missing = [name for name in listed if not hasattr(l1torus, name)]
    assert missing == [], "listed but not bound"
    bound = {name for name, value in vars(l1torus).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert sorted(bound - set(listed)) == [], "bound but not listed"


# Reached only from the benchmark's jobs or its tracer and the tests; they go when
# perfbench/ stops binding them, which is a change to the benchmark of its own.  Every
# route steps the Gegenbauer stream of polys, so its table is one of them.
BENCHMARK_BOUND = {"bspline_eval", "dirichlet_kernel", "dirichlet_seed_poly",
                   "gegenbauer_sequence", "shell_sum"}


def _references(tree: ast.AST, skip: str | None = None):
    """Names loaded and attributes read in ``tree``, outside any def or class named ``skip``."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        yield from _references(node, skip)


def test_every_public_name_is_reached_from_the_package():
    # a public name the CLI, a suite or another route calls; docstrings do not count
    trees = [ast.parse(path.read_text()) for path in Path(l1torus.__file__).parent.glob("*.py")
             if path.name != "__init__.py"]
    unreached = sorted(name for name in l1torus.__all__
                       if not any(name in set(_references(tree, name)) for tree in trees))
    assert unreached == sorted(BENCHMARK_BOUND)
    # each exception holds only while perfbench binds it, by attribute or by traced name
    bench = " ".join(path.read_text() for path in
                     (Path(__file__).resolve().parents[1] / "perfbench").glob("*.py"))
    assert [name for name in sorted(BENCHMARK_BOUND)
            if not re.search(rf"\b{name}\b", bench)] == []


def test_verify_copies_no_mean_route_bound():
    # each limit is read where its table is allocated or its loop runs, and each caller
    # is refused by that one check; a limit imported elsewhere would be a second copy of
    # it, free to drift
    for path in Path(l1torus.__file__).parent.glob("*.py"):
        imported = {alias.name for node in ast.walk(ast.parse(path.read_text()))
                    if isinstance(node, ast.ImportFrom) for alias in node.names}
        copies = {name for name in imported if name.startswith("_MAX_")}
        if path.name not in ("verify.py", "bspline_fourier.py"):
            copies &= {"_MAX_COST", "_MAX_GEGENBAUER"}
        assert copies == set(), path.name


def test_input_rules_are_defined_in_numerics_alone():
    # the (d, n) rule, the order prologue and the r rule each have one definition, which
    # every route calls; a copy elsewhere would be free to drift
    rules = {"_check_dn", "_check_r", "_check_orders", "_count", "_orders", "_shaped"}
    messages = ("dimension must be", "index n must be", "r must lie in", "orders must be integers")
    for path in Path(l1torus.__file__).parent.glob("*.py"):
        text = path.read_text()
        defined = {node.name for node in ast.walk(ast.parse(text))
                   if isinstance(node, ast.FunctionDef)}
        home = path.name == "numerics.py"
        assert defined & rules == (rules if home else set()), path.name
        assert [text.count(m) for m in messages] == [int(home)] * len(messages), path.name


def _gegenbauer_steps(tree: ast.AST) -> list[int]:
    """Lines of three-term steps: a quotient whose numerator takes a product of two or more
    factors from a product of three or more, as (2 (m + lam - 1) t X_{m-1} - b X_{m-2}) / c."""
    def factors(node):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
            return factors(node.left) + factors(node.right)
        return [node]

    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)
            and isinstance(node.left, ast.BinOp) and isinstance(node.left.op, ast.Sub)
            and len(factors(node.left.left)) >= 3 and len(factors(node.left.right)) >= 2]


def test_one_gegenbauer_recurrence_in_polys_alone():
    # the series stepped its own copy of the recurrence beside the table's; every route
    # now takes its rows, raw or normalized, from the one stream in polys
    for path in Path(l1torus.__file__).parent.glob("*.py"):
        steps = _gegenbauer_steps(ast.parse(path.read_text()))
        assert len(steps) == (path.name == "polys.py"), (path.name, steps)
