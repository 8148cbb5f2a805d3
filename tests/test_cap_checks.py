"""Every cap refusal is made in one place.  The package's source is parsed
with ``ast``: ``CapExceededError`` is constructed or raised only inside
``errors.check_cap``, ``DEFAULT_MAX_CELLS`` is assigned only in
``errors``, and no cap parameter of any module is optional (nothing has
an unbounded mode)."""

import ast
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parents[1] / "src" / "cyclecover"
CAP_PARAMETERS = {"cap", "max_cells", "max_entries"}


def parsed(name: str) -> ast.Module:
    return ast.parse((SOURCE / name).read_text(encoding="utf-8"), name)


def functions(tree: ast.Module):
    return [node for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))]


def names_cap_error(node: ast.AST) -> bool:
    return ((isinstance(node, ast.Name) and node.id == "CapExceededError")
            or (isinstance(node, ast.Attribute) and node.attr == "CapExceededError"))


def refusals(tree: ast.Module) -> list[tuple[str, int]]:
    """(enclosing function, line) of every call or raise of
    ``CapExceededError``; module level reads as ``<module>``."""
    owner = {}
    for function in functions(tree):
        for node in ast.walk(function):
            owner[node] = getattr(function, "name", "<lambda>")
    found = []
    for node in ast.walk(tree):
        made = ((isinstance(node, ast.Call) and names_cap_error(node.func))
                or (isinstance(node, ast.Raise) and node.exc is not None
                    and names_cap_error(node.exc)))
        if made:
            found.append((owner.get(node, "<module>"), node.lineno))
    return found


MODULES = sorted(path.name for path in SOURCE.glob("*.py"))


@pytest.mark.parametrize("name", MODULES)
def test_cap_error_is_made_only_in_check_cap(name):
    found = refusals(parsed(name))
    if name == "errors.py":
        assert [owner for owner, _ in found] == ["check_cap"]
    else:
        assert found == [], f"{name} makes CapExceededError at {found}"


def test_default_cap_is_assigned_once_in_errors():
    assigned = [name for name in MODULES
                for node in ast.walk(parsed(name))
                if isinstance(node, (ast.Assign, ast.AnnAssign))
                for target in (node.targets if isinstance(node, ast.Assign)
                               else [node.target])
                if isinstance(target, ast.Name) and target.id == "DEFAULT_MAX_CELLS"]
    assert assigned == ["errors.py"]


def optional_caps(tree: ast.Module) -> tuple[list[str], list[str]]:
    """The cap parameters of every function, and those of them that are
    not annotated ``int`` or default to None."""
    seen, optional = [], []
    for function in functions(tree):
        args = function.args
        positional = args.posonlyargs + args.args
        defaults = ([None] * (len(positional) - len(args.defaults))
                    + list(args.defaults) + list(args.kw_defaults))
        for arg, default in zip(positional + args.kwonlyargs, defaults):
            if arg.arg in CAP_PARAMETERS:
                where = f"{getattr(function, 'name', '<lambda>')}({arg.arg})"
                seen.append(where)
                if (arg.annotation is None or ast.unparse(arg.annotation) != "int"
                        or isinstance(default, ast.Constant) and default.value is None):
                    optional.append(where)
    return seen, optional


def test_homology_caps_are_never_optional():
    seen, optional = optional_caps(parsed("homology.py"))
    assert "homology(max_entries)" in seen and "_schur(cap)" in seen
    assert optional == []


@pytest.mark.parametrize("name", MODULES)
def test_no_cap_is_optional(name):
    seen, optional = optional_caps(parsed(name))
    assert optional == [], f"{name} has optional caps {optional} of {seen}"


def test_the_checks_catch_what_they_forbid():
    planted = ast.parse("def f(cap: int | None = None, max_cells=5):\n"
                        "    raise CapExceededError('x', cap, cap)\n")
    assert refusals(planted) == [("f", 2)]
    assert optional_caps(planted)[1] == ["f(cap)", "f(max_cells)"]
