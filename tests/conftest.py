import numpy as np
import pytest

from povm_forge import Povm, construct_extremal_rank1, eig_herm, qubit_example, type_d_example

EYE2 = np.eye(2, dtype=np.complex128)
SX = np.array([[0, 1], [1, 0]], dtype=np.complex128)
SY = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
SZ = np.array([[1, 0], [0, -1]], dtype=np.complex128)


def sigma_x_pvm() -> Povm:
    return Povm(np.stack([(EYE2 + SX) / 2, (EYE2 - SX) / 2]))


def sigma_z_pvm() -> Povm:
    return Povm(np.stack([(EYE2 + SZ) / 2, (EYE2 - SZ) / 2]))


def four_outcome_qubit() -> Povm:
    """{(I+sx)/4, (I-sx)/4, (I+sz)/4, (I-sz)/4}: rank-1, linearly dependent."""
    return Povm(
        np.stack([(EYE2 + SX) / 4, (EYE2 - SX) / 4, (EYE2 + SZ) / 4, (EYE2 - SZ) / 4])
    )


def random_mixed_rank_pvm(d: int, rng: np.random.Generator) -> Povm:
    """PVM from a Haar-ish random basis with a random partition into blocks."""
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    u, _ = np.linalg.qr(g)
    n_blocks = int(rng.integers(1, d + 1))
    assignment = rng.integers(0, n_blocks, size=d)
    assignment[rng.permutation(d)[:n_blocks]] = np.arange(n_blocks)  # no empty block
    effects = np.zeros((n_blocks, d, d), dtype=np.complex128)
    for idx in range(d):
        v = u[:, idx]
        effects[assignment[idx]] += np.outer(v, v.conj())
    return Povm(effects)


def qubit3_with_rank0_outcome() -> Povm:
    """qubit_example() with 5e-10 |0><0| moved from outcome 3 into a fourth outcome.

    The new effect's norm clears zero_effect_tol but its eigenvalue lies
    below the rank cutoff, so it is a rank-0 effect that is not pruned.
    """
    effects = np.array(qubit_example().effects)
    small = 5e-10 * np.diag([1.0, 0.0]).astype(np.complex128)
    effects[2] -= small
    return Povm(np.concatenate([effects, small[None]]))


def rank1_within_psd_slack() -> Povm:
    """construct_extremal_rank1(3, 7) with -5e-9 u u^H added to effect 0, u its second eigenvector.

    Valid once psd_tol is 1e-8, and still extremal rank-1: the negative eigenvalue
    lies beyond the rank cutoff (rank_tol 1e-9) but must not count as rank.
    """
    effects = np.array(construct_extremal_rank1(3, 7).effects)
    u = eig_herm(effects[0]).eigenvectors[:, 1]
    effects[0] -= 5e-9 * np.outer(u, u.conj())
    return Povm(effects)


def record_eigensolvers(monkeypatch):
    """Wrap ``eigh`` and ``eigvalsh``; each call appends (name, a copy of its matrix)."""
    calls = []
    for name in ("eigh", "eigvalsh"):
        solver = getattr(np.linalg, name)

        def recorded(a, *args, _name=name, _solver=solver, **kwargs):
            calls.append((_name, np.array(a)))
            return _solver(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recorded)
    return calls


@pytest.fixture
def qubit3() -> Povm:
    return qubit_example()


@pytest.fixture
def type_d() -> Povm:
    return type_d_example()


@pytest.fixture
def dependent4() -> Povm:
    return four_outcome_qubit()
