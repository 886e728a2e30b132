import json
import subprocess
import sys

import numpy as np
import pytest

from conftest import EYE2, four_outcome_qubit, qubit3_with_rank0_outcome
from povm_forge import (
    DecompositionCertificate,
    Povm,
    is_extremal_rank1,
    onb_pvm,
    qubit_example,
    random_povm,
    type_d_example,
)
from povm_forge.cli import main


def write_povm(path, povm):
    path.write_text(json.dumps(povm.to_jsonable()))
    return str(path)


@pytest.fixture
def qubit3_file(tmp_path):
    return write_povm(tmp_path / "qubit3.json", qubit_example())


@pytest.fixture(params=["nan_imag", "inf_real"])
def non_finite_file(request, tmp_path):
    effects = np.array(qubit_example().effects)
    if request.param == "nan_imag":
        effects[0, 0, 1] = effects[0, 0, 1].real + 1j * np.nan
    else:
        effects[1, 1, 1] = np.inf
    return write_povm(tmp_path / f"{request.param}.json", Povm(effects))


@pytest.fixture
def skewed_file(tmp_path):
    effects = np.stack([EYE2 / 2, EYE2 / 2 + 1e-6 * np.diag([1.0, -1.0])])
    return write_povm(tmp_path / "skewed.json", Povm(effects))


class TestValidateCommand:
    def test_valid_file(self, qubit3_file, capsys):
        assert main(["validate", qubit3_file]) == 0
        assert "True" in capsys.readouterr().out

    def test_invalid_file_prints_residual(self, tmp_path, capsys):
        path = write_povm(tmp_path / "bad.json", Povm(np.stack([EYE2, EYE2])))
        assert main(["validate", path]) == 1
        out = capsys.readouterr().out
        assert "normalization residual" in out

    def test_lists_every_violation(self, tmp_path, capsys):
        effects = np.stack([1.5 * EYE2, -0.5 * EYE2 + 0.2 * EYE2])
        path = write_povm(tmp_path / "multi.json", Povm(effects))
        assert main(["validate", path, "--format", "json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert len(report["violations"]) >= 2

    def test_non_finite_entry_is_the_first_violation(self, non_finite_file, capsys):
        assert main(["validate", non_finite_file, "--format", "json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["valid"] is False
        assert "non-finite" in report["violations"][0]

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["validate", str(path)]) == 2

    def test_missing_file(self, tmp_path):
        assert main(["validate", str(tmp_path / "absent.json")]) == 2

    def test_schema_violation(self, tmp_path):
        path = tmp_path / "schema.json"
        path.write_text(json.dumps({"dim": 2, "effects": [{"re": [[1, 0], [0, 1]]}]}))
        assert main(["validate", str(path)]) == 2

    def test_tolerance_flag_loosens(self, skewed_file):
        assert main(["validate", skewed_file, "--tol-recon", "1e-3"]) == 0
        assert main(["validate", skewed_file]) == 1

    def test_env_scale(self, skewed_file, monkeypatch):
        monkeypatch.setenv("POVM_FORGE_TOL_SCALE", "1e6")
        assert main(["validate", skewed_file]) == 0
        monkeypatch.delenv("POVM_FORGE_TOL_SCALE")
        assert main(["validate", skewed_file]) == 1


class TestClassifyCommand:
    def test_rank2_reference(self, tmp_path, capsys):
        path = write_povm(tmp_path / "d.json", type_d_example())
        assert main(["classify", path]) == 0
        out = capsys.readouterr().out
        assert "type" in out and "d" in out
        assert "[2, 2, 2]" in out

    def test_basis_pvm(self, tmp_path, capsys):
        path = write_povm(tmp_path / "onb.json", onb_pvm(2))
        assert main(["classify", path]) == 0
        out = capsys.readouterr().out
        assert "a" in out
        assert "outcome bounds" in out

    def test_not_extremal(self, tmp_path, capsys):
        path = write_povm(tmp_path / "pair.json", Povm(np.stack([EYE2 / 2, EYE2 / 2])))
        assert main(["classify", path]) == 0
        assert "not_extremal_or_unknown" in capsys.readouterr().out

    def test_json_format(self, tmp_path, capsys):
        path = write_povm(tmp_path / "onb.json", onb_pvm(3))
        assert main(["classify", path, "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["type"] == "a"
        assert report["rank_profile"] == [1, 1, 1]

    def test_rank0_effect_does_not_count(self, tmp_path, capsys):
        path = write_povm(tmp_path / "rank0.json", qubit3_with_rank0_outcome())
        assert main(["classify", path, "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert (report["outcomes"], report["nonzero_outcomes"], report["type"]) == (4, 3, "a")
        assert report["rank_profile"] == [1, 1, 1]

    def test_invalid_povm(self, tmp_path):
        path = write_povm(tmp_path / "bad.json", Povm(np.stack([EYE2, EYE2])))
        assert main(["classify", path]) == 1

    def test_non_finite_entry_rejected(self, non_finite_file, capsys):
        assert main(["classify", non_finite_file]) == 1
        assert "non-finite" in capsys.readouterr().err


class TestDecomposeCommand:
    def test_extremal_input_single_component(self, qubit3_file, tmp_path, capsys):
        out_path = tmp_path / "cert.json"
        assert main(["decompose", qubit3_file, "--out", str(out_path)]) == 0
        cert = DecompositionCertificate.from_jsonable(json.loads(out_path.read_text()))
        assert len(cert.components) == 1
        assert cert.components[0].weight == 1.0

    def test_dependent_four_outcome(self, tmp_path, capsys):
        path = write_povm(tmp_path / "p4.json", four_outcome_qubit())
        out_path = tmp_path / "cert.json"
        assert main(["decompose", path, "--out", str(out_path), "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["components"] == 2
        assert sorted(report["weights"]) == pytest.approx([0.5, 0.5])
        assert report["verified"] is True
        assert report["max_reconstruction_residual"] <= 1e-8

    def test_random_file(self, tmp_path):
        path = write_povm(tmp_path / "r.json", random_povm(3, 4, seed=8))
        out_path = tmp_path / "cert.json"
        assert main(["decompose", path, "--out", str(out_path)]) == 0
        cert = DecompositionCertificate.from_jsonable(json.loads(out_path.read_text()))
        assert all(is_extremal_rank1(c.extremal) for c in cert.components)

    def test_not_normalized_file_writes_no_certificate(self, tmp_path, capsys):
        path = write_povm(tmp_path / "bad.json", Povm(np.stack([EYE2, EYE2])))
        out_path = tmp_path / "cert.json"
        assert main(["decompose", path, "--out", str(out_path)]) == 1
        assert "normalization residual" in capsys.readouterr().err
        assert not out_path.exists()

    def test_non_finite_file_writes_no_certificate(self, non_finite_file, tmp_path, capsys):
        out_path = tmp_path / "cert.json"
        assert main(["decompose", non_finite_file, "--out", str(out_path)]) == 1
        assert "non-finite" in capsys.readouterr().err
        assert not out_path.exists()


class TestConstructCommand:
    def test_writes_extremal_povm(self, tmp_path):
        out_path = tmp_path / "p.json"
        assert main(["construct", "2", "3", "--out", str(out_path)]) == 0
        povm = Povm.from_jsonable(json.loads(out_path.read_text()))
        assert povm.n_outcomes == 3
        assert is_extremal_rank1(povm)

    def test_out_of_range(self, tmp_path):
        assert main(["construct", "2", "5", "--out", str(tmp_path / "x.json")]) == 1

    def test_minimal_is_basis_pvm(self, tmp_path):
        out_path = tmp_path / "p.json"
        assert main(["construct", "3", "3", "--out", str(out_path)]) == 0
        povm = Povm.from_jsonable(json.loads(out_path.read_text()))
        assert np.allclose(povm.effects, onb_pvm(3).effects)


class TestExamplesCommand:
    def test_qubit3(self, tmp_path):
        out_path = tmp_path / "q.json"
        assert main(["examples", "qubit3", "--out", str(out_path)]) == 0
        povm = Povm.from_jsonable(json.loads(out_path.read_text()))
        assert np.array_equal(povm.effects, qubit_example().effects)

    def test_type_d(self, tmp_path):
        out_path = tmp_path / "d.json"
        assert main(["examples", "type_d", "--out", str(out_path)]) == 0
        povm = Povm.from_jsonable(json.loads(out_path.read_text()))
        assert np.array_equal(povm.effects, type_d_example().effects)

    def test_onb(self, tmp_path):
        out_path = tmp_path / "onb4.json"
        assert main(["examples", "onb:4", "--out", str(out_path)]) == 0
        povm = Povm.from_jsonable(json.loads(out_path.read_text()))
        assert np.array_equal(povm.effects, onb_pvm(4).effects)

    def test_unknown(self, tmp_path):
        assert main(["examples", "sic", "--out", str(tmp_path / "x.json")]) == 1


class TestStatsCommand:
    def make_pair(self, tmp_path, povm):
        povm_path = write_povm(tmp_path / "p.json", povm)
        cert_path = tmp_path / "c.json"
        assert main(["decompose", povm_path, "--out", str(cert_path)]) == 0
        return povm_path, str(cert_path)

    def test_matching_pair(self, tmp_path, capsys):
        povm_path, cert_path = self.make_pair(tmp_path, random_povm(2, 3, seed=2))
        assert main(["stats", povm_path, cert_path, "--trials", "100"]) == 0
        assert "True" in capsys.readouterr().out

    def test_corrupted_certificate(self, tmp_path):
        povm_path, cert_path = self.make_pair(tmp_path, four_outcome_qubit())
        doc = json.loads(open(cert_path).read())
        doc["components"][0]["weight"] *= 1.5
        open(cert_path, "w").write(json.dumps(doc))
        assert main(["stats", povm_path, cert_path, "--trials", "10"]) == 1

    def test_zero_trials(self, tmp_path):
        povm_path, cert_path = self.make_pair(tmp_path, random_povm(2, 2, seed=3))
        assert main(["stats", povm_path, cert_path, "--trials", "0"]) == 0

    def test_target_mismatch(self, tmp_path):
        _, cert_path = self.make_pair(tmp_path, four_outcome_qubit())
        other = write_povm(tmp_path / "other.json", random_povm(2, 4, seed=9))
        assert main(["stats", other, cert_path, "--trials", "10"]) == 1

    def test_non_finite_povm_is_a_target_mismatch(self, tmp_path, capsys):
        povm_path, cert_path = self.make_pair(tmp_path, four_outcome_qubit())
        effects = np.array(four_outcome_qubit().effects)
        effects[0, 0, 0] = np.nan
        write_povm(tmp_path / "p.json", Povm(effects))
        capsys.readouterr()
        assert main(["stats", povm_path, cert_path, "--trials", "10"]) == 1
        assert "certificate target differs" in capsys.readouterr().err


class TestRoundTripPrecision:
    def test_file_round_trip_exact(self, tmp_path):
        povm = random_povm(4, 5, seed=31)
        path = tmp_path / "p.json"
        path.write_text(json.dumps(povm.to_jsonable()))
        back = Povm.from_jsonable(json.loads(path.read_text()))
        assert np.array_equal(back.effects, povm.effects)


def test_module_entry_point(tmp_path):
    path = tmp_path / "onb.json"
    proc = subprocess.run(
        [sys.executable, "-m", "povm_forge", "examples", "onb:2", "--out", str(path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert path.exists()
