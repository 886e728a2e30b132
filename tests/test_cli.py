import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import EYE2, four_outcome_qubit, qubit3_with_rank0_outcome, rank1_within_psd_slack
from povm_forge import (
    DEFAULT_TOL,
    DecompositionCertificate,
    Povm,
    is_extremal_rank1,
    onb_pvm,
    qubit_example,
    random_povm,
    type_d_example,
    verify_certificate,
)
from povm_forge import cli
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

    @pytest.mark.parametrize("flag, field_name", [
        ("--tol-herm", "herm_tol"),
        ("--tol-psd", "psd_tol"),
        ("--tol-rank", "rank_tol"),
        ("--tol-indep", "indep_tol"),
        ("--tol-recon", "recon_tol"),
        ("--tol-zero-effect", "zero_effect_tol"),
    ])
    def test_each_tolerance_flag_sets_its_field_alone(self, monkeypatch, flag, field_name):
        monkeypatch.delenv("POVM_FORGE_TOL_SCALE", raising=False)
        args = cli.build_parser().parse_args(["validate", "povm.json", flag, "0.125"])
        assert cli._tolerances(args) == dataclasses.replace(DEFAULT_TOL, **{field_name: 0.125})


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

    def test_negative_eigenvalue_within_psd_slack_is_not_rank(self, tmp_path, capsys):
        path = write_povm(tmp_path / "slack.json", rank1_within_psd_slack())
        assert main(["classify", path, "--tol-psd", "1e-8", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["type"] == "a"

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

    def test_large_outcome_count_validates_and_classifies(self, tmp_path, capsys):
        out_path = str(tmp_path / "p.json")
        assert main(["construct", "9", "80", "--out", out_path]) == 0
        capsys.readouterr()
        assert main(["validate", out_path, "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["valid"] is True
        assert main(["classify", out_path, "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["type"] == "a"

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

    def test_negative_trials(self, tmp_path, capsys):
        povm_path, cert_path = self.make_pair(tmp_path, random_povm(2, 2, seed=3))
        assert main(["stats", povm_path, cert_path, "--trials", "-1"]) == 1
        assert "trials" in capsys.readouterr().err

    def spoil(self, cert_path, **update):
        doc = json.loads(Path(cert_path).read_text())
        doc["components"][0].update(update)
        Path(cert_path).write_text(json.dumps(doc))

    def test_component_of_another_dimension(self, tmp_path, capsys):
        povm_path, cert_path = self.make_pair(tmp_path, onb_pvm(2))
        self.spoil(cert_path, extremal=onb_pvm(3).to_jsonable(), relabel=[1, 2, 2])
        assert main(["stats", povm_path, cert_path, "--trials", "10"]) == 1
        assert "dimension" in capsys.readouterr().err

    def test_relabel_of_another_length_does_not_fit(self, tmp_path, capsys):
        povm_path, cert_path = self.make_pair(tmp_path, qubit_example())
        self.spoil(cert_path, relabel=[1, 2])
        assert main(["stats", povm_path, cert_path, "--trials", "10"]) == 1
        assert "component 0: map source size 2 != outcome count 3" in capsys.readouterr().err

    def test_fractional_relabel_is_a_parse_failure(self, tmp_path, capsys):
        povm_path, cert_path = self.make_pair(tmp_path, qubit_example())
        self.spoil(cert_path, relabel=[1.7, 2.7, 3.7])
        assert main(["stats", povm_path, cert_path, "--trials", "10"]) == 2
        assert "integers" in capsys.readouterr().err

    def test_string_weight_is_a_parse_failure(self, tmp_path, capsys):
        povm_path, cert_path = self.make_pair(tmp_path, qubit_example())
        self.spoil(cert_path, weight="1.0")
        assert main(["stats", povm_path, cert_path, "--trials", "10"]) == 2
        assert "weight must be a number" in capsys.readouterr().err

    def test_indented_certificate_still_loads(self, tmp_path):
        povm_path, cert_path = self.make_pair(tmp_path, random_povm(3, 4, seed=5))
        text = Path(cert_path).read_text()
        assert text.count("\n") == 1  # written compact, on one line
        Path(cert_path).write_text(json.dumps(json.loads(text), indent=2))
        cert = DecompositionCertificate.from_jsonable(json.loads(Path(cert_path).read_text()))
        assert verify_certificate(cert).passed
        assert main(["stats", povm_path, cert_path, "--trials", "20"]) == 0

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


class TestRefusedValues:
    @pytest.mark.parametrize("spoil", [
        lambda doc: doc.update(dim=2.7),
        lambda doc: doc.update(dim="2"),
        lambda doc: doc["effects"][0]["re"][0].__setitem__(0, "1"),
    ])
    def test_parse_failure(self, tmp_path, capsys, spoil):
        doc = qubit_example().to_jsonable()
        spoil(doc)
        path = tmp_path / "spoiled.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == 2
        assert "must be" in capsys.readouterr().err


class TestRepeatedCalls:
    """``main`` runs many times in one process on one parser, each call on its own arguments."""

    def test_parser_built_once(self, qubit3_file, monkeypatch):
        builds = []
        common = cli._common_parser
        monkeypatch.setattr(cli, "_common_parser", lambda: builds.append(1) or common())
        cli.build_parser.cache_clear()
        try:
            for _ in range(5):
                assert main(["validate", qubit3_file]) == 0
                assert main(["classify", qubit3_file, "--format", "json"]) == 0
        finally:
            cli.build_parser.cache_clear()
        assert len(builds) == 1

    @pytest.mark.parametrize("argv", [["--help"], ["stats", "--help"]])
    def test_help_is_the_same_on_every_call(self, argv, capsys):
        texts = []
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 0
            texts.append(capsys.readouterr().out)
        assert texts[0] == texts[1]
        assert "usage: povm-forge" in texts[0]

    def test_parse_error_leaves_the_next_call_intact(self, qubit3_file, capsys):
        assert main(["validate", qubit3_file, "--format", "json"]) == 0
        expected = capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["validate", qubit3_file, "--format", "xml"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
        assert main(["validate", qubit3_file, "--format", "json"]) == 0
        assert capsys.readouterr() == expected

    def test_options_do_not_leak_into_the_next_call(self, tmp_path, capsys):
        povm_path = write_povm(tmp_path / "p.json", random_povm(2, 3, seed=2))
        cert_path = str(tmp_path / "c.json")
        assert main(["decompose", povm_path, "--out", cert_path]) == 0
        capsys.readouterr()
        assert main(["stats", povm_path, cert_path, "--trials", "5", "--seed", "3",
                     "--tol-recon", "1e-3", "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert (report["trials"], report["threshold"]) == (5, 1e-3)
        assert main(["stats", povm_path, cert_path, "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert (report["trials"], report["threshold"]) == (100, DEFAULT_TOL.recon_tol)


class TestRoundTripPrecision:
    def test_file_round_trip_exact(self, tmp_path):
        povm = random_povm(4, 5, seed=31)
        path = tmp_path / "p.json"
        path.write_text(json.dumps(povm.to_jsonable()))
        back = Povm.from_jsonable(json.loads(path.read_text()))
        assert np.array_equal(back.effects, povm.effects)


def test_module_entry_point(tmp_path):
    path = tmp_path / "onb.json"
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "povm_forge", "examples", "onb:2", "--out", str(path)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert path.exists()
