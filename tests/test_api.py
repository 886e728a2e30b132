"""The public surface: every exported name exists, and no module imports a name it never uses."""

import ast
import importlib
import pkgutil
from pathlib import Path

import povm_forge


def test_every_name_in_all_resolves():
    modules = [povm_forge] + [
        importlib.import_module(f"povm_forge.{info.name}")
        for info in pkgutil.iter_modules(povm_forge.__path__)
        if info.name != "__main__"  # importing it runs the CLI
    ]
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.{name}"


def _quoted_annotation_names(tree):
    """Names read by annotations written as strings, such as ``-> "ToleranceConfig"``."""
    names = set()
    for node in ast.walk(tree):
        for note in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                parsed = ast.parse(note.value, mode="eval")
                names |= {n.id for n in ast.walk(parsed) if isinstance(n, ast.Name)}
    return names


def test_no_module_imports_a_name_it_never_uses():
    """Every imported name is read somewhere in its module or listed in ``__all__``.

    ``__init__`` re-exports and ``__main__`` runs the CLI, so both are left out.
    """
    unused = []
    for path in sorted(Path(povm_forge.__file__).parent.glob("*.py")):
        if path.stem in ("__init__", "__main__"):
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        used |= _quoted_annotation_names(tree)
        used |= {
            element.value
            for node in tree.body
            if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            for element in node.value.elts
        }
        unused += [f"{path.name}: {name}" for name in sorted(imported - used)]
    assert not unused, unused


def _placed_nodes():
    """(places, node, "file:line") of every syntax node in ``src``.

    A node is placed by its file and by the module-level def or class holding it,
    as ``file`` and ``file:name``.
    """
    for path in sorted(Path(povm_forge.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for top in tree.body:
            places = {path.name, f"{path.name}:{getattr(top, 'name', '')}"}
            for node in ast.walk(top):
                yield places, node, f"{path.name}:{getattr(node, 'lineno', top.lineno)}"


def _calls():
    """(places, callee, "file:line") of every call in ``src``: X(...) or module.X(...)."""
    for places, node, where in _placed_nodes():
        if isinstance(node, ast.Call):
            yield places, getattr(node.func, "id", getattr(node.func, "attr", None)), where


def test_povm_failures_are_built_only_by_their_validators():
    """``violations`` words every POVM failure; ``require_hermitian`` checks a bare matrix.

    Any other module reports these failures by passing theirs on, so no second wording appears.
    """
    allowed = {
        "NonFiniteError": {"povm.py"},
        "NotPSDError": {"povm.py"},
        "NotNormalizedError": {"povm.py"},
        "NotHermitianError": {"povm.py", "linalg.py:require_hermitian"},
    }
    stray = [
        f"{where}: {name}"
        for places, name, where in _calls()
        if name in allowed and not places & allowed[name]
    ]
    assert not stray, stray


def test_only_linalg_calls_inv_sqrt():
    """The congruence that makes operators sum to I (``normalizer``) lives in ``linalg`` alone."""
    stray = [
        where
        for places, name, where in _calls()
        if name == "inv_sqrt" and "linalg.py" not in places
    ]
    assert not stray, stray


def test_one_spectral_pass():
    """``eigvalsh`` runs in ``povm._eigenvalues`` and in ``rank_of`` only.

    The validator and every analysis take their eigenvalues from ``_eigenvalues``;
    the analyses through ``_spectrum`` (prune, ``hermitian_part``, ``_eigenvalues``),
    which is also the one caller of ``hermitian_part`` outside ``linalg``.
    """
    allowed = {
        "eigvalsh": {"povm.py:_eigenvalues", "linalg.py:rank_of"},
        "hermitian_part": {"linalg.py", "povm.py:_spectrum"},
    }
    stray = [
        f"{where}: {name}"
        for places, name, where in _calls()
        if name in allowed and not places & allowed[name]
    ]
    assert not stray, stray


def test_only_the_validator_holds_the_hermitian_and_psd_thresholds():
    """``hermitian_deviation`` is called in ``linalg`` and ``_checked`` only; ``psd_tol`` is read there too.

    ``psd_tol`` is also read in ``_eigenvalues``, whose rank-1 bound settles only
    effects inside [0, I].  Every other module takes its POVM verdicts from ``_checked``, so no second
    copy of its numbers can round to the other side of a tolerance.
    """
    allowed = {"linalg.py", "povm.py:_checked"}
    stray = [
        f"{where}: hermitian_deviation"
        for places, name, where in _calls()
        if name == "hermitian_deviation" and not places & allowed
    ]
    stray += [
        f"{where}: psd_tol"
        for places, node, where in _placed_nodes()
        if isinstance(node, ast.Attribute)
        and node.attr == "psd_tol"
        and not places & (allowed | {"povm.py:_eigenvalues"})
    ]
    assert not stray, stray


def test_one_rank_rule():
    """``rank_tol`` is read in ``linalg.effect_ranks`` and ``decomposer._debris_floor`` only.

    Every rank, and every rank-1 shortcut, comes from ``effect_ranks``, so no two
    analyses can count an effect's rank by different rules.
    """
    allowed = {"linalg.py:effect_ranks", "decomposer.py:_debris_floor"}
    stray = [
        f"{where}: rank_tol"
        for places, node, where in _placed_nodes()
        if isinstance(node, ast.Attribute) and node.attr == "rank_tol" and not places & allowed
    ]
    assert not stray, stray


def test_one_zero_effect_rule():
    """``zero_effect_tol`` is read in ``povm._effect_norms`` and ``decomposer._debris_floor`` only.

    Pruning and ``rank1_failures`` both take their nonzero effects from
    ``_effect_norms``, so no two analyses can drop an effect by different rules.
    """
    allowed = {"povm.py:_effect_norms", "decomposer.py:_debris_floor"}
    stray = [
        f"{where}: zero_effect_tol"
        for places, node, where in _placed_nodes()
        if isinstance(node, ast.Attribute)
        and node.attr == "zero_effect_tol"
        and not places & allowed
    ]
    assert not stray, stray
