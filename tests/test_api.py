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


def test_only_the_validators_name_the_povm_failures():
    """The four POVM failure classes are named in ``povm`` and ``require_hermitian`` only.

    ``NonFiniteError``, ``NotHermitianError``, ``NotPSDError`` and
    ``NotNormalizedError`` are read nowhere else, and imported only by the two
    modules that hold the validators (an import left unread fails
    :func:`test_no_module_imports_a_name_it_never_uses`).  So every other module
    passes a POVM's failures on in ``violations``' order, first entry first, and
    cannot re-order or re-word them.
    """
    names = {"NonFiniteError", "NotHermitianError", "NotPSDError", "NotNormalizedError"}
    readers, importers = {"povm.py", "linalg.py:require_hermitian"}, {"povm.py", "linalg.py"}
    stray = []
    for places, node, where in _placed_nodes():
        if isinstance(node, ast.alias):
            name, allowed = node.name, importers
        else:
            name, allowed = getattr(node, "id", getattr(node, "attr", None)), readers
        if name in names and not places & allowed:
            stray.append(f"{where}: {name}")
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

    ``_eigenvalues`` is called by the validator's pass ``_checked`` alone, which is
    entered from ``violations``, from ``rank1_failures`` and, for every analysis,
    from ``_spectrum``.  So no analysis checks a POVM, or takes its eigenvalues, a
    second way; ``require_hermitian`` checks bare matrices in ``linalg`` only.
    """
    allowed = {
        "eigvalsh": {"povm.py:_eigenvalues", "linalg.py:rank_of"},
        "_eigenvalues": {"povm.py:_checked"},
        "_checked": {"povm.py:violations", "povm.py:_spectrum", "extremality.py:rank1_failures"},
        "require_hermitian": {"linalg.py"},
    }
    stray = [
        f"{where}: {name}"
        for places, name, where in _calls()
        if name in allowed and not places & allowed[name]
    ]
    assert not stray, stray


def test_only_the_validator_holds_the_hermitian_and_psd_thresholds():
    """``psd_tol`` is read in ``linalg``, ``_checked`` and ``_eigenvalues`` only.

    ``_eigenvalues``' rank-1 bound settles only effects inside [0, I].  Every other
    module takes its POVM verdicts from ``_checked``, so no second copy of its
    numbers can round to the other side of a tolerance.  ``herm_tol`` is pinned
    by :func:`test_one_hermitian_rule`.
    """
    allowed = {"linalg.py", "povm.py:_checked", "povm.py:_eigenvalues"}
    stray = [
        f"{where}: psd_tol"
        for places, node, where in _placed_nodes()
        if isinstance(node, ast.Attribute) and node.attr == "psd_tol" and not places & allowed
    ]
    assert not stray, stray


def test_one_hermitian_rule():
    """``hermitian_split`` is called in ``linalg`` and ``_checked`` only; ``herm_tol`` is read beside it.

    ``herm_tol`` is read in ``_checked``, ``require_hermitian`` (the one check that
    raises) and ``normalizer`` (which widens it for a sum).  So every Hermitian
    deviation is measured, and every near-Hermitian effect averaged, by one kernel.
    """
    split = {"linalg.py", "povm.py:_checked"}
    threshold = {"povm.py:_checked", "linalg.py:require_hermitian", "linalg.py:normalizer"}
    stray = [
        f"{where}: hermitian_split"
        for places, name, where in _calls()
        if name == "hermitian_split" and not places & split
    ]
    stray += [
        f"{where}: herm_tol"
        for places, node, where in _placed_nodes()
        if isinstance(node, ast.Attribute) and node.attr == "herm_tol" and not places & threshold
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


def test_only_equivalent_prunes():
    """``prune_zero_effects`` is called in ``src`` by ``povm.equivalent`` alone.

    Every analysis and ``extend_extremal`` read a zero effect as rank 0 in
    ``povm._spectrum`` and keep its outcome in place, so none of them decides a
    second way which effects count.
    """
    callers = [(places, where) for places, name, where in _calls() if name == "prune_zero_effects"]
    stray = [where for places, where in callers if "povm.py:equivalent" not in places]
    assert callers and not stray, stray


def _defined_names(top):
    """Names a module-level statement binds: a def's or class's name, or an assignment's targets."""
    if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
        return [top.name]
    targets = top.targets if isinstance(top, ast.Assign) else [getattr(top, "target", None)]
    return [target.id for target in targets if isinstance(target, ast.Name)]


def test_every_private_name_has_a_caller():
    """Every module-level private def, class or constant in ``src`` is read outside its own definition.

    A helper whose last caller is removed stays behind unseen by the public
    surface's tests; this finds it.  A read is a loaded name, an attribute or
    an imported name anywhere in ``src``, save inside the def or class itself.
    """
    private = [
        (name, f"{path.name}:{name}", f"{path.name}:{top.lineno}")
        for path in sorted(Path(povm_forge.__file__).parent.glob("*.py"))
        for top in ast.parse(path.read_text(), filename=str(path)).body
        for name in _defined_names(top)
        if name.startswith("_") and not name.startswith("__")
    ]
    reads: dict[str, list[set[str]]] = {}
    for places, node, _ in _placed_nodes():
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads.setdefault(node.id, []).append(places)
        elif isinstance(node, (ast.Attribute, ast.alias)):
            reads.setdefault(getattr(node, "attr", getattr(node, "name", None)), []).append(places)
    orphans = [
        f"{where}: {name}"
        for name, own, where in private
        if not any(own not in places for places in reads.get(name, ()))
    ]
    assert not orphans, orphans


# The package's layers, lowest first: a module imports only from layers below its own.
_LAYERS = (
    {"errors"},
    {"linalg"},
    {"povm"},
    {"extremality"},
    {"constructor", "decomposer"},
    {"cli"},
    {"__init__", "__main__"},
)


def test_modules_import_in_one_direction():
    """Every import is a module-level statement and reads only from a lower layer.

    So no module imports another inside a function, a class or an ``if`` (such as
    ``if TYPE_CHECKING:``) to get round a cycle: the modules import in the order
    errors <- linalg <- povm <- extremality <- {constructor, decomposer} <- cli.
    """
    layer = {name: i for i, names in enumerate(_LAYERS) for name in names}
    paths = sorted(Path(povm_forge.__file__).parent.glob("*.py"))
    assert {path.stem for path in paths} == set(layer), "place every module in _LAYERS"
    stray = []
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            where = f"{path.name}:{node.lineno}"
            if node not in tree.body:
                stray.append(f"{where}: import below module level")
            if getattr(node, "level", 0) and not layer[node.module] < layer[path.stem]:
                stray.append(f"{where}: {path.stem} imports {node.module}")
    assert not stray, stray
