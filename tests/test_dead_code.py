"""Every public function, class and method of the package is used by the
program itself (``src/`` or ``scripts/``), or is one of the ORACLES: the
test-only definitions that ``bench/test_bench.py`` reaches, which stay in
the package while the benchmark imports them from there.  Any other
definition that only the tests call lives in ``tests/oracles.py``, which
imports from the package only value types, constants and small helpers,
never an engine that it checks.

Use is a fixpoint.  It starts from code that lies outside every definition
of the package (the program's module-level statements and the scripts, or
the benchmark's tests); a definition is used once code already counted
refers to it, and from then on its own body counts too.  A method can be
used only once its class is.  For program use, references inside ORACLES
entries and inside definitions not yet used never count, nor do import
lines: a call from an oracle or from dead code, or a bare import, keeps
nothing alive.

A function or class is referred to by its name, as a name or an attribute.
A method or property counts only as an attribute (a local variable of the
same name does not keep it alive), and a classmethod or staticmethod only
through its class (``MeasurementSetting.planar``, or ``cls.planar`` inside
``MeasurementSetting``; ``other.planar`` does not count).
"""

import ast
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "bellgame"
PROGRAM = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
TESTS = sorted(p for p in Path(__file__).parent.glob("*.py") if p != Path(__file__))
BENCH_TESTS = ROOT / "bench" / "test_bench.py"
ORACLE_MODULE = Path(__file__).parent / "oracles.py"

#: Definitions that only the tests call and that bench/test_bench.py reaches:
#: the trace rule (state, observables, advisor and distribution) with the
#: trace-rule payoffs and Bell values, and the exact bilinear form and
#: distribution-level Bell expression that those read.  ``check`` reads its
#: distribution off the GHZ closed form, so no program path builds a
#: trace-rule distribution.
ORACLES = {
    "classical.bell_expression",
    "classical.correlator",
    "game.expected_payoffs",
    "quantum.QuantumAdvisor",
    "quantum.QuantumAdvisor.validate",
    "quantum.ghz_advisor",
    "quantum.ghz_state",
    "quantum.observable_matrix",
    "quantum.projectors",
    "quantum.quantum_bell",
    "quantum.quantum_distribution",
    "quantum.quantum_payoffs",
}

#: What tests/oracles.py may import from the package: value types,
#: constants and small helpers.
ORACLE_IMPORTS = {
    "ALGEBRA_TOL",
    "ConditionalDistribution",
    "Frozen",
    "GameDefinition",
    "IDENTITY2",
    "MIXTURE_DENOMINATOR",
    "MIXTURE_MAX_ATOMS",
    "Numeric",
    "PLAYERS",
    "PROFILES",
    "PayoffTriple",
    "Player",
    "Prior",
    "Profile",
    "STRATEGIES",
    "StrategyProfile",
    "TAU",
    "UtilityTable",
    "ValidationError",
    "profile_index",
    "wrap_angle",
}
#: Engines that the oracles check, which tests/oracles.py never imports;
#: nor any ghz_* function.
ENGINES = {
    "_sampled_payoffs",
    "best_response_check",
    "integer_form",
    "maximize_planar",
    "profile_table",
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


def _use(paths, excluded) -> tuple[set[str], set[str]]:
    """(the definitions that the code of the files uses, the keys of the
    references that count), as the fixpoint of the module docstring, with
    the excluded definitions never used."""
    refs = [(_owner(path, line), key) for path, line, key in _references(paths)]
    used: set[str] = set()
    while True:
        live = {key for owner, key in refs if owner is None or owner in used}
        new = {
            name
            for name, d in DEFINITIONS.items()
            if name not in used
            and name not in excluded
            and (d.parent is None or d.parent in used)
            and d.keys & live
        }
        if not new:
            return used, live
        used |= new


DEFINITIONS = _definitions()
USED, LIVE_KEYS = _use(PROGRAM, ORACLES)


def test_every_public_definition_is_used_by_the_program():
    unused = [
        name
        for name in DEFINITIONS
        if _is_public(name.rpartition(".")[2]) and name not in ORACLES | USED
    ]
    assert unused == []


def test_oracles_exist_are_tested_and_unused_by_the_program():
    assert sorted(ORACLES - DEFINITIONS.keys()) == []
    # A method of an oracle class is reached only through that class, whose
    # own entry is checked: a live ``.validate`` (ConditionalDistribution's)
    # says nothing of QuantumAdvisor.validate.
    called = [
        name
        for name in sorted(ORACLES)
        if DEFINITIONS[name].keys & LIVE_KEYS and DEFINITIONS[name].parent not in ORACLES
    ]
    assert called == []
    tested = {key for _, _, key in _references(TESTS)}
    assert [name for name in sorted(ORACLES) if not DEFINITIONS[name].keys & tested] == []


def test_oracles_are_exactly_what_the_bench_reaches_beyond_the_program():
    """Run from the program and bench/test_bench.py together, with no
    definition excluded, the fixpoint reaches ORACLES and nothing else
    that the program does not use: no other test-only definition is kept
    in the package."""
    reached, _ = _use(PROGRAM + [BENCH_TESTS], set())
    assert sorted(reached - USED) == sorted(ORACLES)


def test_the_oracles_share_no_code_with_the_engines():
    """tests/oracles.py imports from bellgame only names of ORACLE_IMPORTS,
    each by name (a module import would reach every engine)."""
    imported = []
    for node in ast.walk(ast.parse(ORACLE_MODULE.read_text())):
        if isinstance(node, ast.Import):
            assert [a.name for a in node.names if a.name.partition(".")[0] == "bellgame"] == []
        elif isinstance(node, ast.ImportFrom) and (node.module or "").partition(".")[0] == "bellgame":
            imported += [a.name for a in node.names]
    assert [n for n in imported if n in ENGINES or n.startswith("ghz_")] == []
    assert sorted(set(imported) - ORACLE_IMPORTS) == []
    assert imported
