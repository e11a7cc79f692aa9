"""Every public function, class and method of the package is used by the
program itself (``src/`` or ``scripts/``), or is a test oracle named in
ORACLES.

A function or class counts as used when its name appears outside its
definition as a name, an attribute or an import.  A method or property
counts only as an attribute (a local variable of the same name does not
keep it alive), and a classmethod or staticmethod only through its class
(``Prior.uniform``, or ``cls.uniform`` inside ``Prior``; ``rng.uniform``
does not count).
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "bellgame"
PROGRAM = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
TESTS = sorted(p for p in Path(__file__).parent.glob("*.py") if p != Path(__file__))

#: Definitions that only the tests call: the Fraction and trace-rule oracles
#: the production paths are held to, the paper's symmetry tools, and
#: constructors of test inputs.
ORACLES = {
    "classical.HiddenVariableModel.from_profiles",
    "classical.deterministic_payoffs",
    "classical.flip_types",
    "classical.hv_model_to_distribution",
    "classical.random_hidden_variable_model",
    "classical.strategy_to_distribution",
    "game.ConditionalDistribution.uniform",
    "game.Prior.uniform",
    "game.UtilityTable.constant",
    "game.affine_transform",
    "quantum.gauge_equivalent",
    "quantum.ghz_single_party_marginal",
    "quantum.quantum_bell",
    "quantum.quantum_payoffs",
}


def _is_public(name: str) -> bool:
    return not name.startswith("_")


def _definitions() -> dict[str, tuple[Path, ast.AST, set[str]]]:
    """Qualified name -> (file, node, the reference keys that count as a
    use); see _references for the keys."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not _is_public(node.name):
                continue
            found[f"{module}.{node.name}"] = (path, node, {node.name, "." + node.name})
            if not isinstance(node, ast.ClassDef):
                continue
            for member in node.body:
                if isinstance(member, ast.FunctionDef) and _is_public(member.name):
                    bound = any(
                        isinstance(d, ast.Name) and d.id in ("classmethod", "staticmethod")
                        for d in member.decorator_list
                    )
                    key = f"{node.name}.{member.name}" if bound else "." + member.name
                    found[f"{module}.{node.name}.{member.name}"] = (path, member, {key})
    return found


def _references(paths) -> list[tuple[Path, int, str]]:
    """(file, line, key) of every name, attribute and import in the files.

    A name or an imported name is keyed by itself, an attribute as
    ``.attr``, and an attribute of a name also as ``name.attr``, with
    ``cls`` read as the enclosing class.
    """
    refs = []
    for path in paths:
        tree = ast.parse(path.read_text())
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                for node in ast.walk(cls):
                    if (
                        isinstance(node, ast.Attribute)
                        and isinstance(node.value, ast.Name)
                        and node.value.id == "cls"
                    ):
                        refs.append((path, node.lineno, f"{cls.name}.{node.attr}"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.append((path, node.lineno, node.id))
            elif isinstance(node, ast.Attribute):
                refs.append((path, node.lineno, "." + node.attr))
                if isinstance(node.value, ast.Name):
                    refs.append((path, node.lineno, f"{node.value.id}.{node.attr}"))
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    refs.extend((path, node.lineno, part) for part in alias.name.split("."))
    return refs


def _used(definition, refs) -> bool:
    path, node, keys = definition
    return any(
        key in keys and not (where == path and node.lineno <= line <= node.end_lineno)
        for where, line, key in refs
    )


DEFINITIONS = _definitions()


def test_every_public_definition_is_used_by_the_program():
    refs = _references(PROGRAM)
    unused = [
        name
        for name, definition in DEFINITIONS.items()
        if name not in ORACLES and not _used(definition, refs)
    ]
    assert unused == []


def test_oracles_exist_are_tested_and_unused_by_the_program():
    assert sorted(ORACLES - DEFINITIONS.keys()) == []
    program, tests = _references(PROGRAM), _references(TESTS)
    assert [name for name in sorted(ORACLES) if _used(DEFINITIONS[name], program)] == []
    assert [name for name in sorted(ORACLES) if not _used(DEFINITIONS[name], tests)] == []
