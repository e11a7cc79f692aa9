"""Every public function, class and method of the package is used by the
program itself (``src/`` or ``scripts/``), or is a test oracle named in
ORACLES.

Program use is a fixpoint.  It starts from the program code that lies
outside every definition of the package (module-level statements and the
scripts); a definition is used once code already counted refers to it, and
from then on its own body counts too.  A method can be used only once its
class is.  References inside ORACLES entries and inside definitions not yet
used never count, nor do import lines: a call from an oracle or from dead
code, or a bare import, keeps nothing alive.

A function or class is referred to by its name, as a name or an attribute.
A method or property counts only as an attribute (a local variable of the
same name does not keep it alive), and a classmethod or staticmethod only
through its class (``Prior.uniform``, or ``cls.uniform`` inside ``Prior``;
``rng.uniform`` does not count).
"""

import ast
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "bellgame"
PROGRAM = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
TESTS = sorted(p for p in Path(__file__).parent.glob("*.py") if p != Path(__file__))

#: Definitions that only the tests call: the Fraction and trace-rule oracles
#: the production paths are held to, the paper's symmetry tools, and
#: constructors of test inputs.
ORACLES = {
    "classical.HiddenVariableModel",
    "classical.HiddenVariableModel.from_profiles",
    "classical.bell_expression",
    "classical.correlator",
    "classical.deterministic_payoffs",
    "classical.flip_types",
    "classical.hv_model_to_distribution",
    "classical.random_hidden_variable_model",
    "classical.strategy_to_distribution",
    "game.ConditionalDistribution.uniform",
    "game.Prior.uniform",
    "game.UtilityTable.constant",
    "game.UtilityTable.from_function",
    "game.affine_transform",
    "game.expected_payoffs",
    "quantum.gauge_canonicalize",
    "quantum.gauge_equivalent",
    "quantum.gauge_transform",
    "quantum.ghz_single_party_marginal",
    "quantum.quantum_bell",
    "quantum.quantum_payoffs",
}


def _is_public(name: str) -> bool:
    return not name.startswith("_")


class Definition(NamedTuple):
    path: Path
    node: ast.AST
    keys: set[str]  # the reference keys that count as a use; see _references
    parent: str | None  # the qualified name of a method's class


def _definitions() -> dict[str, Definition]:
    """Qualified name -> Definition of every top-level function and class of
    the package, private ones too (their bodies count only once they are
    used), and of every public method.  A private method is part of its
    class's body."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            qualified = f"{module}.{node.name}"
            found[qualified] = Definition(path, node, {node.name, "." + node.name}, None)
            if not isinstance(node, ast.ClassDef):
                continue
            for member in node.body:
                if isinstance(member, ast.FunctionDef) and _is_public(member.name):
                    bound = any(
                        isinstance(d, ast.Name) and d.id in ("classmethod", "staticmethod")
                        for d in member.decorator_list
                    )
                    key = f"{node.name}.{member.name}" if bound else "." + member.name
                    found[f"{qualified}.{member.name}"] = Definition(
                        path, member, {key}, qualified
                    )
    return found


def _references(paths) -> list[tuple[Path, int, str]]:
    """(file, line, key) of every name and attribute in the files, outside
    import lines.

    A name is keyed by itself, an attribute as ``.attr``, and an attribute
    of a name also as ``name.attr``, with ``cls`` read as the enclosing
    class.
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
    return refs


def _owner(path: Path, line: int) -> str | None:
    """The innermost definition whose body holds the line, if any: of a
    class and its method, the method, whose qualified name is longer."""
    owners = [
        name
        for name, d in DEFINITIONS.items()
        if d.path == path and d.node.lineno <= line <= d.node.end_lineno
    ]
    return max(owners, key=len, default=None)


def _program_use() -> tuple[set[str], set[str]]:
    """(the definitions the program uses, the keys of the references that
    count), as the fixpoint of the module docstring."""
    refs = [(_owner(path, line), key) for path, line, key in _references(PROGRAM)]
    used: set[str] = set()
    while True:
        live = {key for owner, key in refs if owner is None or owner in used}
        new = {
            name
            for name, d in DEFINITIONS.items()
            if name not in used
            and name not in ORACLES
            and (d.parent is None or d.parent in used)
            and d.keys & live
        }
        if not new:
            return used, live
        used |= new


DEFINITIONS = _definitions()
USED, LIVE_KEYS = _program_use()


def test_every_public_definition_is_used_by_the_program():
    unused = [
        name
        for name in DEFINITIONS
        if _is_public(name.rpartition(".")[2]) and name not in ORACLES | USED
    ]
    assert unused == []


def test_oracles_exist_are_tested_and_unused_by_the_program():
    assert sorted(ORACLES - DEFINITIONS.keys()) == []
    assert [name for name in sorted(ORACLES) if DEFINITIONS[name].keys & LIVE_KEYS] == []
    tested = {key for _, _, key in _references(TESTS)}
    assert [name for name in sorted(ORACLES) if not DEFINITIONS[name].keys & tested] == []
