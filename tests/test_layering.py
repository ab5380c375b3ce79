"""Each decision of the package lives in one module.

The rule that makes a matrix a state (its Hermitian gate, its split along
exact zeros, the assembly of the component spectra, the trace gate, the clip
and the renormalization) is linalg's: no other module reads TRACE_TOL or
_assembled_eig, and the Schur-Weyl route reaches the rule through linalg's
own routines.  A state is gated once, when it is built, and every reader
takes its canonical matrix: outside linalg only the test type
(discrimination.TestOperator) runs the Hermitian gate.  The oracle is an
independent reference that shares no code path with the pipeline it checks,
so no package module imports a private name from it.  The Schur-Weyl
route's module is imported inside the functions that take the route, so a
command that never does (and ``import symtest.cli``) does not load it, and
divergences.TwirledSweep is its one reader.  No class is generated at
import: the value types are slotted classes with their own ``__init__``,
never a dataclass or a NamedTuple, whose decoration compiles source on
every start of the command line.
"""

import ast
from pathlib import Path

import symtest

STATE_RULE = {"TRACE_TOL", "_assembled_eig"}


def package_modules():
    """(module name, syntax tree) of every module of the package."""
    for path in sorted(Path(symtest.__file__).parent.glob("*.py")):
        yield path.stem, ast.parse(path.read_text(encoding="utf-8"))


def imported_names(tree, module: str):
    """The names a tree imports from the package module `module`, and the
    attributes it reads off a name bound to that module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module in (module, f"symtest.{module}"):
            yield from (alias.name for alias in node.names)
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == module):
            yield node.attr


def test_only_linalg_reads_the_state_rule():
    found = [f"{name}: {used}" for name, tree in package_modules() if name != "linalg"
             for used in imported_names(tree, "linalg") if used in STATE_RULE]
    assert not found, f"the state rule is read outside linalg: {found}"


def test_only_the_test_type_reads_the_hermitian_gate():
    found = [name for name, tree in package_modules()
             if name not in ("linalg", "discrimination", "__init__")
             and "hermitian" in imported_names(tree, "linalg")]
    assert not found, f"a reader re-gates a state: {found}"


def test_no_package_module_imports_a_private_oracle_name():
    found = [f"{name}: {used}" for name, tree in package_modules() if name != "oracle"
             for used in imported_names(tree, "oracle") if used.startswith("_")]
    assert not found, f"the oracle shares code with the pipeline: {found}"


def module_level_imports(tree):
    """The import statements of a tree outside any function body."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def test_the_schur_weyl_route_is_imported_on_first_use_only():
    found = []
    for name, tree in package_modules():
        for node in module_level_imports(tree):
            modules = ([node.module or ""] + [f"{node.module or ''}.{a.name}" for a in node.names]
                       if isinstance(node, ast.ImportFrom) else [a.name for a in node.names])
            if any(m.split(".")[-1] == "schur_weyl" for m in modules):
                found.append(name)
    assert not found, f"imported at module level: {found}"


def test_only_the_sweep_reads_the_schur_weyl_route():
    # divergences.TwirledSweep hands out the blocks as parts (m, x0, x1);
    # every other reader takes them from it
    found = []
    for name, tree in package_modules():
        for node in ast.walk(tree):
            modules = ([node.module or ""] + [f"{node.module or ''}.{a.name}" for a in node.names]
                       if isinstance(node, ast.ImportFrom)
                       else [a.name for a in node.names] if isinstance(node, ast.Import) else [])
            if any(m.split(".")[-1] == "schur_weyl" for m in modules):
                found.append(name)
    assert set(found) == {"divergences"}, f"modules importing schur_weyl: {found}"


def test_no_class_is_generated_at_import():
    found = []
    for name, tree in package_modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                found += [f"{name}: import {a.name}" for a in node.names
                          if a.name.split(".")[0] == "dataclasses"]
            elif isinstance(node, ast.ImportFrom) and node.module:
                if node.module.split(".")[0] == "dataclasses":
                    found.append(f"{name}: from dataclasses")
                found += [f"{name}: {node.module}.{a.name}" for a in node.names
                          if a.name == "NamedTuple"]
            elif isinstance(node, ast.Attribute) and node.attr == "NamedTuple":
                found.append(f"{name}: .NamedTuple")
    assert not found, f"generated classes: {found}"
