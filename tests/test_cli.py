import hashlib
import json

import numpy as np
import pytest

from juntatester.boolfn import BooleanFunction
from juntatester.cli import main
from juntatester.distribution import Distribution
from juntatester.harness import gen_random_junta


@pytest.fixture
def junta_files(tmp_path):
    f = gen_random_junta(6, 2, np.random.default_rng(0))
    dist = Distribution.uniform(6)
    fpath = tmp_path / "f.json"
    dpath = tmp_path / "d.json"
    fpath.write_text(json.dumps(f.to_json()))
    dpath.write_text(json.dumps(dist.to_json()))
    return str(fpath), str(dpath)


@pytest.fixture
def parity_files(tmp_path):
    f = BooleanFunction.parity(8, [1, 2, 3])
    dist = Distribution.uniform(8)
    fpath = tmp_path / "parity.json"
    dpath = tmp_path / "uniform.json"
    fpath.write_text(json.dumps(f.to_json()))
    dpath.write_text(json.dumps(dist.to_json()))
    return str(fpath), str(dpath)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRunCommand:
    def test_junta_accepts(self, capsys, junta_files):
        fpath, dpath = junta_files
        code, out, _ = run_cli(
            capsys, "run", "--function", fpath, "--dist", dpath,
            "--k", "2", "--eps", "0.25", "--seed", "7",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["decision"] == "accept"
        assert set(doc["ledger"]) == {
            "classical_queries", "classical_samples", "quantum_queries",
        }

    def test_malformed_json_exits_2(self, capsys, tmp_path, junta_files):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, out, err = run_cli(
            capsys, "run", "--function", str(bad), "--dist", junta_files[1],
            "--k", "2", "--eps", "0.25", "--seed", "7",
        )
        assert code == 2
        assert out == ""
        assert "bad.json" in err

    def test_eps_zero_exits_2(self, capsys, junta_files):
        fpath, dpath = junta_files
        code, _, _ = run_cli(
            capsys, "run", "--function", fpath, "--dist", dpath,
            "--k", "2", "--eps", "0", "--seed", "7",
        )
        assert code == 2

    def test_unknown_flag_exits_2(self, capsys, junta_files):
        fpath, dpath = junta_files
        code, _, _ = run_cli(
            capsys, "run", "--function", fpath, "--dist", dpath,
            "--k", "2", "--eps", "0.25", "--seed", "7", "--bogus", "1",
        )
        assert code == 2

    def test_deterministic_given_seed(self, capsys, parity_files):
        fpath, dpath = parity_files
        args = ("run", "--function", fpath, "--dist", dpath,
                "--k", "2", "--eps", "0.25", "--seed", "99")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2


class TestDistanceCommand:
    def test_junta_distance_zero(self, capsys, junta_files):
        fpath, dpath = junta_files
        code, out, _ = run_cli(
            capsys, "distance", "--function", fpath, "--dist", dpath, "--k", "2"
        )
        assert code == 0
        assert json.loads(out)["distance"] == pytest.approx(0.0, abs=1e-12)

    def test_parity_distance_half(self, capsys, parity_files):
        fpath, dpath = parity_files
        code, out, _ = run_cli(
            capsys, "distance", "--function", fpath, "--dist", dpath, "--k", "2"
        )
        assert code == 0
        assert json.loads(out)["distance"] == pytest.approx(0.5)

    def test_work_cap_exits_4(self, capsys, tmp_path):
        f = BooleanFunction.constant(20, 0)
        fpath = tmp_path / "big.json"
        fpath.write_text(json.dumps(f.to_json()))
        dpath = tmp_path / "bigd.json"
        from juntatester.boolfn import BitString

        dpath.write_text(json.dumps(Distribution.point_mass(BitString(20, 0)).to_json()))
        code, _, err = run_cli(
            capsys, "distance", "--function", str(fpath), "--dist", str(dpath),
            "--k", "10",
        )
        assert code == 4
        assert "work cap" in err

    def test_planted_output_bytes_are_pinned(self, capsys, tmp_path):
        fpath, dpath = str(tmp_path / "f.json"), str(tmp_path / "d.json")
        code, _, _ = run_cli(
            capsys, "gen", "--kind", "planted", "--n", "12", "--k", "3",
            "--eps", "0.25", "--seed", "11",
            "--out-function", fpath, "--out-dist", dpath,
        )
        assert code == 0
        code, out, _ = run_cli(
            capsys, "distance", "--function", fpath, "--dist", dpath, "--k", "3"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["distance"] == 0.5
        assert doc["best_subset"] == [1, 2, 3]
        # the bytes a full-table scan over every 3-subset writes for this fixture
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "b28bb4a538ad987f0e823bd1616f95007dbe34ccdbf89261feace8ecca040e4a"
        )

    @pytest.mark.parametrize(
        "doc",
        [
            '{"n": 2, "dense": [NaN, 1, 1, 1]}',
            '{"n": 2, "dense": [Infinity, 1, 1, 1]}',
            '{"n": 2, "support": [{"x": "1", "w": 1}]}',
            '{"n": 2, "support": [{"x": "01", "w": 1}, {"x": "01", "w": 2}]}',
        ],
    )
    def test_malformed_distribution_exits_2(self, capsys, tmp_path, junta_files, doc):
        dpath = tmp_path / "bad_dist.json"
        dpath.write_text(doc)
        code, out, err = run_cli(
            capsys, "distance", "--function", junta_files[0], "--dist", str(dpath),
            "--k", "1",
        )
        assert code == 2
        assert out == ""
        assert "bad_dist.json" in err


class TestMalformedFunction:
    @pytest.mark.parametrize(
        "doc",
        [
            {"n": 4, "table": "10010110"},
            {"n": 3, "table": "0x96ff"},
            {"n": 3, "table": "0x96", "junta": {"vars": [1, 2, 3], "inner_table": "0x9600"}},
            {"n": 3, "table": "0x96", "junta": {"vars": [1, 2, 9], "inner_table": "10010110"}},
        ],
    )
    def test_exits_2(self, capsys, tmp_path, doc):
        fpath = tmp_path / "bad_f.json"
        fpath.write_text(json.dumps(doc))
        code, out, err = run_cli(
            capsys, "spectrum", "--function", str(fpath), "--cube-x", "000", "--cube-y", "111"
        )
        assert (code, out) == (2, "")
        assert "bad_f.json" in err


class TestSpectrumCommand:
    def test_constant(self, capsys, tmp_path):
        fpath = tmp_path / "c.json"
        fpath.write_text(json.dumps(BooleanFunction.constant(3, 0).to_json()))
        code, out, _ = run_cli(
            capsys, "spectrum", "--function", str(fpath),
            "--cube-x", "000", "--cube-y", "110",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["coefficients"][""] == pytest.approx(1.0)
        assert doc["squared_sum"] == pytest.approx(1.0, abs=1e-9)

    def test_parity_single_character(self, capsys, tmp_path):
        fpath = tmp_path / "p.json"
        fpath.write_text(json.dumps(BooleanFunction.parity(3, [1, 3]).to_json()))
        code, out, _ = run_cli(
            capsys, "spectrum", "--function", str(fpath),
            "--cube-x", "000", "--cube-y", "101",
        )
        doc = json.loads(out)
        assert abs(doc["coefficients"]["1,3"]) == pytest.approx(1.0)

    def test_and_four_coefficients(self, capsys, tmp_path):
        fpath = tmp_path / "and.json"
        fpath.write_text(
            json.dumps(BooleanFunction.from_table(2, [0, 0, 0, 1]).to_json())
        )
        code, out, _ = run_cli(
            capsys, "spectrum", "--function", str(fpath),
            "--cube-x", "00", "--cube-y", "11",
        )
        doc = json.loads(out)
        assert sorted(abs(v) for v in doc["coefficients"].values()) == pytest.approx(
            [0.5, 0.5, 0.5, 0.5]
        )

    def test_dimension_mismatch_exits_2(self, capsys, tmp_path):
        fpath = tmp_path / "c.json"
        fpath.write_text(json.dumps(BooleanFunction.constant(3, 0).to_json()))
        code, _, _ = run_cli(
            capsys, "spectrum", "--function", str(fpath),
            "--cube-x", "00", "--cube-y", "11",
        )
        assert code == 2


class TestExperimentCommand:
    def test_completeness_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "n": 8, "k": 2, "eps": 0.2, "trials": 50, "master_seed": 4242,
            "fixture": {"kind": "junta", "dist": "sparse", "support_size": 16},
        }))
        code, out, _ = run_cli(capsys, "experiment", "--config", str(cfg))
        assert code == 0
        assert json.loads(out)["acceptance_rate"] == 1.0

    def test_soundness_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "n": 8, "k": 2, "eps": 0.25, "trials": 200, "master_seed": 4243,
            "fixture": {"kind": "far", "family": "parity"},
        }))
        code, out, _ = run_cli(capsys, "experiment", "--config", str(cfg))
        assert code == 0
        assert json.loads(out)["rejection_rate"] >= 0.4

    def test_zero_trials_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "n": 8, "k": 2, "eps": 0.25, "trials": 0, "master_seed": 1,
        }))
        code, _, _ = run_cli(capsys, "experiment", "--config", str(cfg))
        assert code == 2

    def test_unattainable_certification_exits_3(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "n": 8, "k": 2, "eps": 0.6, "trials": 10, "master_seed": 1,
            "fixture": {"kind": "far", "family": "parity"},
        }))
        code, _, _ = run_cli(capsys, "experiment", "--config", str(cfg))
        assert code == 3


class TestGenCommand:
    def test_gen_parity_with_certificate(self, capsys, tmp_path):
        fp, dp, cp = (str(tmp_path / x) for x in ("f.json", "d.json", "c.json"))
        code, out, _ = run_cli(
            capsys, "gen", "--kind", "parity", "--n", "8", "--k", "2",
            "--eps", "0.25", "--seed", "11",
            "--out-function", fp, "--out-dist", dp, "--out-certificate", cp,
        )
        assert code == 0
        assert json.loads(out)["distance"] == pytest.approx(0.5)
        f = BooleanFunction.from_json(json.loads(open(fp).read()))
        assert len(f.relevant_variables()) == 3
        cert = json.loads(open(cp).read())
        assert cert["distance"] == pytest.approx(0.5)

    def test_gen_junta_round_trips_through_run(self, capsys, tmp_path):
        fp, dp = str(tmp_path / "f.json"), str(tmp_path / "d.json")
        code, _, _ = run_cli(
            capsys, "gen", "--kind", "junta", "--n", "8", "--k", "2",
            "--seed", "13", "--support-size", "16",
            "--out-function", fp, "--out-dist", dp,
        )
        assert code == 0
        code, out, _ = run_cli(
            capsys, "run", "--function", fp, "--dist", dp,
            "--k", "2", "--eps", "0.2", "--seed", "3",
        )
        assert code == 0
        assert json.loads(out)["decision"] == "accept"

    def test_stdout_carries_only_json(self, capsys, tmp_path):
        fp, dp = str(tmp_path / "f.json"), str(tmp_path / "d.json")
        code, out, _ = run_cli(
            capsys, "gen", "--kind", "junta", "--n", "6", "--k", "2",
            "--seed", "17", "--out-function", fp, "--out-dist", dp,
        )
        assert code == 0
        json.loads(out)  # a single parseable document


GOOD_CONFIG = {"n": 8, "k": 2, "eps": 0.25, "trials": 3, "master_seed": 1}


@pytest.mark.parametrize(
    "argv, config",
    [
        (["gen", "--kind", "junta", "--n", "8", "--k", "9"], None),
        (["gen", "--kind", "parity", "--n", "8", "--k", "8"], None),
        (["gen", "--kind", "junta", "--n", "25", "--k", "2"], None),
        (["gen", "--kind", "junta", "--n", "8", "--k", "2", "--support-size", "-1"], None),
        (["experiment"], {**GOOD_CONFIG, "fixture": {"kind": "bogus"}}),
        (["experiment"], {**GOOD_CONFIG, "fixture": {"kind": "junta", "dist": "bogus"}}),
        (["experiment"], {**GOOD_CONFIG, "fixture": {"kind": "far", "family": "bogus"}}),
        (["experiment"], {**GOOD_CONFIG, "n": 8.7, "trials": 3.9}),
        (["experiment"], {**GOOD_CONFIG, "k": True}),
    ],
)
def test_exit_code_matrix(capsys, tmp_path, argv, config):
    """Bad gen dimensions and bad experiment configs exit 2 before anything is built."""
    if config is None:
        argv = argv + ["--seed", "1", "--out-function", str(tmp_path / "f.json"),
                       "--out-dist", str(tmp_path / "d.json")]
    else:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        argv = argv + ["--config", str(tmp_path / "cfg.json")]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ")
    assert not (tmp_path / "f.json").exists()
