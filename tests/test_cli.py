import contextlib
import copy
import hashlib
import io
import json
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from juntatester import cli, distribution, harness
from juntatester.boolfn import BitString, BooleanFunction, Cube
from juntatester.cli import main
from juntatester.distribution import Distribution
from juntatester.harness import gen_random_junta

from reference import reference_spectrum_listing, relevant_variables


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


def dense_doc(n, weights):
    """A dense distribution document on n=6, the dimension of `junta_files`."""
    return f'{{"n": {n}, "dense": {json.dumps(weights)}}}'


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
        f = BooleanFunction(20, np.zeros(1 << 20))
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
            pytest.param(dense_doc(6.5, [1] * 64), id="n-fractional"),
            pytest.param(dense_doc('"6"', [1] * 64), id="n-string"),
            pytest.param(dense_doc("1e400", [1] * 64), id="n-overflow"),
            pytest.param(dense_doc(10**12, [1, 1]), id="n-huge"),
            pytest.param(dense_doc(6, ["1"] * 64), id="dense-string-weights"),
            pytest.param(dense_doc(6, [True, False] * 32), id="dense-bool-weights"),
            pytest.param('{"n": 6, "support": [{"x": "000000", "w": "1"}]}', id="w-string"),
            pytest.param('{"n": 6, "support": [{"x": "000000", "w": true}]}', id="w-bool"),
            pytest.param('{"n": 6, "support": [{"x": 3.7, "w": 1}]}', id="x-fractional"),
            pytest.param('{"n": 6, "support": [{"x": true, "w": 1}]}', id="x-bool"),
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
        assert err.startswith("error: ") and err.count("\n") == 1


class TestMalformedFunction:
    @pytest.mark.parametrize(
        "doc",
        [
            {"n": 4, "table": "10010110"},
            {"n": 3, "table": "0x96ff"},
            {"n": 3, "table": "0x96", "junta": {"vars": [1, 2, 3], "inner_table": "0x9600"}},
            {"n": 3, "table": "0x96", "junta": {"vars": [1, 2, 9], "inner_table": "10010110"}},
            pytest.param({"n": 3.9, "table": "01101001"}, id="n-fractional"),
            pytest.param({"n": "3", "table": "01101001"}, id="n-string"),
            pytest.param('{"n": 1e400, "table": "01101001"}', id="n-overflow"),
            pytest.param(
                {"n": 3, "table": "01010101", "junta": {"vars": [1.5], "inner_table": "01"}},
                id="junta-var-fractional",
            ),
        ],
    )
    def test_exits_2(self, capsys, tmp_path, doc):
        fpath = tmp_path / "bad_f.json"
        fpath.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        code, out, err = run_cli(
            capsys, "spectrum", "--function", str(fpath), "--cube-x", "000", "--cube-y", "111"
        )
        assert (code, out) == (2, "")
        assert "bad_f.json" in err
        assert err.startswith("error: ") and err.count("\n") == 1


class TestSpectrumCommand:
    def test_constant(self, capsys, tmp_path):
        fpath = tmp_path / "c.json"
        fpath.write_text(json.dumps(BooleanFunction(3, np.zeros(8)).to_json()))
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
            json.dumps(BooleanFunction(2, np.array([0, 0, 0, 1])).to_json())
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
        fpath.write_text(json.dumps(BooleanFunction(3, np.zeros(8)).to_json()))
        code, _, _ = run_cli(
            capsys, "spectrum", "--function", str(fpath),
            "--cube-x", "00", "--cube-y", "11",
        )
        assert code == 2

    def test_junta_output_bytes_are_pinned(self, capsys, tmp_path):
        """Every subset of I(B) is printed, the ones holding a variable the junta
        does not read as 0.0: the bytes of the full 2^12-point transform."""
        fpath, dpath = str(tmp_path / "f.json"), str(tmp_path / "d.json")
        code, _, _ = run_cli(
            capsys, "gen", "--kind", "junta", "--n", "12", "--k", "3", "--seed", "5",
            "--out-function", fpath, "--out-dist", dpath,
        )
        assert code == 0
        code, out, _ = run_cli(
            capsys, "spectrum", "--function", fpath,
            "--cube-x", "000000000000", "--cube-y", "111111111111",
        )
        assert code == 0
        assert len(json.loads(out)["coefficients"]) == 1 << 12
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "78a9c14778e5401a6450bf34d4d4961210116ba23576cff9491ec17982dec7bc"
        )

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 10), st.booleans(), st.integers(0, 2**32 - 1))
    def test_output_matches_the_reference_listing(self, tmp_path_factory, n, junta, seed):
        """The bytes of the frozenset-keyed listing that `spectrum` once built, on
        plain and junta-backed functions over random cubes."""
        rng = np.random.default_rng(seed)
        if junta:
            k = int(rng.integers(0, n + 1))
            variables = rng.choice(np.arange(1, n + 1), size=k, replace=False).tolist()
            f = BooleanFunction.from_junta(n, variables, rng.integers(0, 2, size=1 << k))
        else:
            f = BooleanFunction(n, rng.integers(0, 2, size=1 << n))
        x, y = (BitString(n, int(v)) for v in rng.integers(0, 1 << n, size=2))
        fpath = tmp_path_factory.mktemp("spectrum") / "f.json"
        fpath.write_text(json.dumps(f.to_json()))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["spectrum", "--function", str(fpath),
                             "--cube-x", str(x), "--cube-y", str(y)])
        assert code == 0
        assert out.getvalue() == json.dumps(reference_spectrum_listing(f, Cube(x, y)),
                                            sort_keys=True) + "\n"

    def test_bytes_per_printed_coefficient(self, tmp_path):
        """A full-cube listing of a random table on 14 variables allocates under
        400 B per printed coefficient at its peak, its output aside: about 220 B on
        CPython 3.11, where the frozenset-keyed listing took about 920 B."""
        n = 14
        fpath = tmp_path / "f.json"
        f = BooleanFunction(n, np.random.default_rng(n).integers(0, 2, size=1 << n))
        fpath.write_text(json.dumps(f.to_json()))
        argv = ["spectrum", "--function", str(fpath), "--cube-x", "0" * n, "--cube-y", "1" * n]
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            tracemalloc.start()
            try:
                code = cli.main(argv)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert code == 0
        assert peak / (1 << n) < 400

    def test_cube_past_the_cap_exits_4_before_the_spectrum(self, capsys, monkeypatch, tmp_path):
        """|I(B)| above `SPECTRUM_MAX_DIM` exits 4 before `restricted_spectrum`
        runs; |I(B)| at the cap is listed."""
        def never(*args):
            raise AssertionError("the spectrum was computed")

        fpath = tmp_path / "f.json"
        fpath.write_text(json.dumps(BooleanFunction.parity(4, [1, 2]).to_json()))
        monkeypatch.setattr(cli, "SPECTRUM_MAX_DIM", 3)
        code, out, _ = run_cli(capsys, "spectrum", "--function", str(fpath),
                               "--cube-x", "0000", "--cube-y", "1110")
        assert code == 0 and len(json.loads(out)["coefficients"]) == 8
        monkeypatch.setattr(cli, "restricted_spectrum", never)
        code, out, err = run_cli(capsys, "spectrum", "--function", str(fpath),
                                 "--cube-x", "0000", "--cube-y", "1111")
        assert (code, out) == (4, "")
        assert err == "error: |I(B)| = 4 exceeds the spectrum cap of 3\n"


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


# sha256 of `gen` files for a 2-junta and the uniform distribution on n=6, seed 7
JUNTA_6 = "410495e7df4dda11bffe08d6b55d69a04dd753c49060709f7d13e04dd1d979be"
UNIFORM_6 = "30075a2757a644e6680a26a1a13b45be58aff509c56f7887eb77865427d13c38"


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
        assert len(relevant_variables(f)) == 3
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

    def test_write_error_exits_2(self, capsys, tmp_path):
        """An output file that cannot be opened (its name is too long) is one
        `error:` line and exit 2, not a traceback."""
        fp, dp = str(tmp_path / "f.json"), str(tmp_path / ("d" * 300 + ".json"))
        code, out, err = run_cli(
            capsys, "gen", "--kind", "junta", "--n", "6", "--k", "2",
            "--seed", "17", "--out-function", fp, "--out-dist", dp,
        )
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot write {dp}: ") and err.count("\n") == 1

    def test_stdout_carries_only_json(self, capsys, tmp_path):
        fp, dp = str(tmp_path / "f.json"), str(tmp_path / "d.json")
        code, out, _ = run_cli(
            capsys, "gen", "--kind", "junta", "--n", "6", "--k", "2",
            "--seed", "17", "--out-function", fp, "--out-dist", dp,
        )
        assert code == 0
        json.loads(out)  # a single parseable document

    @pytest.mark.parametrize(
        "argv, digests",
        [
            (["--kind", "junta", "--n", "6", "--k", "2"],
             {"function": JUNTA_6, "dist": UNIFORM_6}),
            (["--kind", "junta", "--n", "6", "--k", "2", "--support-size", "32"],
             {"function": JUNTA_6,
              "dist": "8450b45ec3ff2d5ce5d74c12210b84a2edc0e32cf35cbdbe7ce025f32a1db029"}),
            (["--kind", "parity", "--n", "6", "--k", "2"],
             {"function": "de33249fb65992d8f26a9efc2f1df8130db86a9efd92498d6644988d255aa9da",
              "dist": UNIFORM_6,
              "certificate": "14f28161d2166b4621cbf188e379ab0102037d4d720d8316b954d6a9746b17ec"}),
            (["--kind", "random_function", "--n", "6", "--k", "2"],
             {"function": "7af508734412552ad5eb74fd8d0d6e28d77c00de863e46afd8a06748846e685b",
              "dist": UNIFORM_6,
              "certificate": "a83113bae2034ee8d055a3bd968c6e87f90503717a603951ea59534cf6265fb2"}),
            (["--kind", "planted", "--n", "8", "--k", "2", "--eps", "0.25"],
             {"function": "956cffb5a09b33ef87392d40def9bdd53251fa87e3b32ff797e49513aa3c722b",
              "dist": "385de70565984a638881744592f4b9c3754fca5e8ae8d671d1bf16393f141eb6",
              "certificate": "815869b134c9c8d962c63ddf2d8ecbd722b57a2612b14aff2998d57e8285ae1f"}),
        ],
        ids=["junta-uniform", "junta-sparse", "parity", "random_function", "planted"],
    )
    def test_file_bytes_are_pinned(self, capsys, tmp_path, argv, digests):
        """`gen` writes the bytes that `build_fixture` on stream 0 of the seed gives;
        a certificate is asked for, and written, only for a far kind."""
        paths = {name: tmp_path / f"{name}.json" for name in digests}
        flags = [arg for name, path in paths.items() for arg in (f"--out-{name}", str(path))]
        code, _, _ = run_cli(capsys, "gen", *argv, "--seed", "7", *flags)
        assert code == 0
        written = {
            name: hashlib.sha256(path.read_bytes()).hexdigest()
            for name, path in paths.items() if path.exists()
        }
        assert written == digests


def gen_files(capsys, tmp_path, kind, *argv):
    """`gen` of `kind` into tmp_path: the function and distribution paths."""
    fp, dp = str(tmp_path / f"{kind}-f.json"), str(tmp_path / f"{kind}-d.json")
    code, _, _ = run_cli(
        capsys, "gen", "--kind", kind, *argv, "--out-function", fp, "--out-dist", dp
    )
    assert code == 0
    return fp, dp


@pytest.mark.parametrize("variant", ["classical", "amplified"])
@pytest.mark.parametrize(
    "kind, fixture",
    [("junta", {"kind": "junta"}), ("planted", {"kind": "far", "family": "planted"})],
)
def test_run_on_gen_files_is_trial_0_of_experiment(capsys, tmp_path, kind, fixture, variant):
    """`gen` builds stream 0 of the seed and `run` drives stream 1, so `run` on
    `gen`'s files reaches the decision and ledger of the experiment's trial 0."""
    fp, dp = gen_files(
        capsys, tmp_path, kind, "--n", "10", "--k", "2", "--eps", "0.25", "--seed", "9"
    )
    code, out, _ = run_cli(
        capsys, "run", "--function", fp, "--dist", dp, "--k", "2", "--eps", "0.25",
        "--seed", "9", "--variant", variant,
    )
    assert code == 0
    trial = json.loads(out)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "n": 10, "k": 2, "eps": 0.25, "trials": 1, "master_seed": 9,
        "variant": variant, "fixture": fixture,
    }))
    code, out, _ = run_cli(capsys, "experiment", "--config", str(cfg))
    assert code == 0
    report = json.loads(out)
    assert report["rejections"] == (trial["decision"] == "reject")
    ledger = {
        channel: stats["max"] for channel, stats in report["ledger_aggregates"].items()
        if channel != "total"
    }
    assert ledger == trial["ledger"]


@pytest.mark.parametrize(
    "kind, argv, k, digests",
    [
        ("junta", ["--n", "12", "--k", "3"], "3",
         {"classical": "887a7318601c308a17155419577a99801c81ed10bf1e62f6b82671c6e2ba61ad",
          "amplified": "28bafce8338925633906689b008f278a93de66ceb2ef1e009cc831ae72b1e469"}),
        ("planted", ["--n", "10", "--k", "2", "--eps", "0.25"], "2",
         {"classical": "c6da7bbf2f44833b0709cd36db4ce2302cfca330a97d316216c44d4067c47f8e",
          "amplified": "b45c86ed30c7a094b19bcc0322df648c5ba657179e1c880074aa7651f01af13e"}),
    ],
)
def test_run_output_is_pinned(capsys, tmp_path, kind, argv, k, digests):
    """sha256 of `run --eps 0.25 --seed 1` stdout on `gen --seed 5` files."""
    fp, dp = gen_files(capsys, tmp_path, kind, *argv, "--seed", "5")
    for variant, digest in digests.items():
        code, out, _ = run_cli(
            capsys, "run", "--function", fp, "--dist", dp, "--k", k, "--eps", "0.25",
            "--seed", "1", "--variant", variant,
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, variant


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
        (["experiment"], {**GOOD_CONFIG, "eps": True}),
        (["experiment"], {**GOOD_CONFIG, "eps": "0.25"}),
        (["experiment"], {**GOOD_CONFIG, "master_seed": -5}),
        (["gen", "--kind", "junta", "--n", "8", "--k", "2", "--seed", "-1"], None),
        (["experiment"], {**GOOD_CONFIG, "fixture": {"kind": "junta", "dsit": "sparse"}}),
        (["experiment"],
         {**GOOD_CONFIG, "fixture": {"kind": "far", "family": "parity", "support_size": 8}}),
        (["experiment"], {**GOOD_CONFIG, "n": 6,
                          "fixture": {"kind": "junta", "dist": "sparse", "support_size": 2000}}),
        (["gen", "--kind", "junta", "--n", "6", "--k", "2", "--support-size", "2000"], None),
        (["gen", "--kind", "parity", "--n", "8", "--k", "2", "--support-size", "32"], None),
        (["experiment"], {**GOOD_CONFIG, "varaint": "amplified"}),
        (["experiment"],
         {**GOOD_CONFIG, "fixture": {"kind": "junta", "dist": "uniform", "support_size": 8}}),
        (["experiment"],
         {**GOOD_CONFIG, "fixture": {"kind": "junta", "dist": "point_mass", "support_size": 8}}),
        (["experiment"], {**GOOD_CONFIG, "fixture": {"kind": "junta", "family": "parity"}}),
        (["experiment"], {**GOOD_CONFIG, "fixture": {"kind": "far", "dist": "uniform"}}),
        (["experiment"], {**GOOD_CONFIG, "n": 5, "fixture": {"kind": "junta", "dist": "sparse"}}),
        (["spectrum", "--cube-x", "000", "--cube-y", "011"],
         {"n": 3, "table": "01010101", "junta": {"vars": [1, 1], "inner_table": "0111"}}),
        # Each case from here on exited 0, raised, or exited 2 without one
        # `error:` line naming the problem. A (file, text) pair gives the text
        # that the error line must hold.
        (["spectrum", "--cube-x", "000", "--cube-y", "011"],
         ({"n": 3, "table": "01010101", "tabel": 1}, "['tabel']")),
        (["spectrum", "--cube-x", "000", "--cube-y", "011"],
         ([{"n": 3, "table": "01010101"}], "function must be a JSON object")),
        (["spectrum", "--cube-x", "000", "--cube-y", "011"],
         ({"n": 3, "table": "01010101", "junta": [[1], "01"]}, "junta block must be a JSON object")),
        (["spectrum", "--cube-x", "000", "--cube-y", "011"],
         ({"n": 3, "table": "01010101", "junta": {"vars": [1], "inner_table": "01", "q": 0}},
          "['q']")),
        (["distance", "--k", "1"],
         ({"n": 2, "dense": [1, 1, 1, 1], "support": [{"x": "00", "w": 1}]},
          "exactly one of 'dense' and 'support'")),
        (["distance", "--k", "1"], ({"n": 2, "dense": [1, 1, 1, 1], "denes": [1]}, "['denes']")),
        (["distance", "--k", "1"], ({"n": 2, "support": [{"x": "00", "w": 1, "q": 0}]}, "['q']")),
        (["distance", "--k", "1"],
         ([{"n": 2, "dense": [1, 1, 1, 1]}], "distribution must be a JSON object")),
        (["distance", "--k", "1"],
         ({"n": 2, "support": [["00", 1]]}, "support entry must be a JSON object")),
        (["distance", "--k", "1"], ({"n": 2, "support": [{"x": 10**30, "w": 1}]}, "out of range")),
        (["distance", "--k", "1"], ({"n": 2, "dense": [10**400, 1, 1, 1]}, "range of a float")),
        (["experiment"], ([1, 2], "config must be a JSON object")),
        (["experiment"], ({**GOOD_CONFIG, "fixture": ["kind", "junta"]}, "fixture must be a JSON object")),
        (["experiment"], ({**GOOD_CONFIG, "fixture": "junta"}, "fixture must be a JSON object")),
        (["experiment"], ({**GOOD_CONFIG, "eps": 10**400}, "range of a float")),
        (["run", "--k", "2", "--eps", "2", "--seed", "1"],
         ({"n": 8, "dense": [1] * 256}, "eps must be in (0, 1]")),
        (["gen", "--kind", "junta", "--n", "8", "--k", "2", "--eps", "0"], None),
        (["spectrum", "--cube-x", "00", "--cube-y", "11"],
         ({"n": 2}, "function is missing key 'table'")),
        (["spectrum", "--cube-x", "000", "--cube-y", "011"],
         ({"n": 3, "table": "01010101", "junta": {"vars": [1]}},
          "junta block is missing key 'inner_table'")),
        (["distance", "--k", "1"],
         ({"n": 2, "support": [{"x": "00"}]}, "support entry is missing key 'w'")),
        (["experiment"],
         ({key: v for key, v in GOOD_CONFIG.items() if key != "eps"},
          "config is missing key 'eps'")),
        (["distance", "--k", "1"], ({"n": 2, "dense": 5}, "dense must be a JSON list, got int")),
        (["spectrum", "--cube-x", "000", "--cube-y", "011"],
         ({"n": 3, "table": "01010101", "junta": {"vars": 5, "inner_table": "01"}},
          "junta vars must be a JSON list, got int")),
        (["distance", "--k", "1"],
         ({"n": 2, "support": {"x": "00", "w": 1}}, "support must be a JSON list, got dict")),
        (["gen", "--kind", "junta", "--n", "8", "--k", "2", "--support-size", "0"],
         (None, "support_size must be in 1..2^8, got 0")),
        (["gen", "--kind", "parity", "--n", "8", "--k", "2", "--support-size", "0"],
         (None, "['dist', 'support_size'] do not apply")),
        (["gen", "--kind", "junta", "--n", "8", "--k", "2", "--out-certificate", "c.json"],
         (None, "--out-certificate applies only to a far kind")),
        (["gen", "--kind", "parity", "--n", "8", "--k", "2", "--out-function", ""],
         (None, "output path '' is empty or in a missing directory")),
        (["gen", "--kind", "junta", "--n", "8", "--k", "2", "--out-dist", ""],
         (None, "output path '' is empty")),
        (["gen", "--kind", "parity", "--n", "8", "--k", "2", "--out-function", "nodir/f.json"],
         (None, "nodir/f.json' is empty or in a missing directory")),
        (["gen", "--kind", "parity", "--n", "8", "--k", "2", "--out-certificate", ""],
         (None, "output path '' is empty")),
        (["gen", "--kind", "planted", "--n", "8", "--k", "2", "--out-certificate", "nodir/c.json"],
         (None, "nodir/c.json' is empty or in a missing directory")),
        (["gen", "--kind", "parity", "--n", "6", "--k", "2", "--out-function", "."],
         (None, "output path '.' is a directory")),
        (["gen", "--kind", "junta", "--n", "6", "--k", "2", "--out-dist", "."],
         (None, "output path '.' is a directory")),
        (["gen", "--kind", "junta", "--n", "6", "--k", "2",
          "--out-function", "same.json", "--out-dist", "same.json"],
         (None, "--out-function and --out-dist name one file")),
        (["gen", "--kind", "parity", "--n", "6", "--k", "2",
          "--out-certificate", "a.json", "--out-function", "a.json"],
         (None, "--out-function and --out-certificate name one file")),
        (["gen", "--kind", "junta", "--n", "6", "--k", "2",
          "--out-dist", "d" * 300 + ".json"], (None, "cannot write")),
        (["run", "--k", "2", "--eps", "0.25", "--seed", "1"],
         ({"n": 6, "dense": [1] * 64}, "dimension mismatch: function n=8, distribution n=6")),
        (["distance", "--k", "1"],
         ({"n": 6, "dense": [1] * 64}, "dimension mismatch: function n=8, distribution n=6")),
        (["distance", "--k", "-1"], ({"n": 8, "dense": [1] * 256}, "k must be nonnegative")),
        (["spectrum", "--cube-x", "0a1", "--cube-y", "011"],
         ({"n": 3, "table": "01010101"}, "not a bit string: '0a1'")),
        (["spectrum", "--cube-x", "01", "--cube-y", "011"],
         ({"n": 3, "table": "01010101"}, "corner dimensions differ: 2 vs 3")),
    ],
)
def test_exit_code_matrix(capsys, tmp_path, parity_files, argv, config):
    """Bad gen arguments, run flags and input files exit 2 before anything is
    built, and a gen whose last write fails leaves no file. `config` is the
    file the command reads: an experiment config, the function file of
    `spectrum`, or the distribution file of `run` and `distance`, whose
    function is the parity on n=8 of `parity_files`."""
    config, names = config if isinstance(config, tuple) else (config, "")
    if config is None:
        for flag, value in (("--seed", "1"), ("--out-function", "f.json"),
                            ("--out-dist", "d.json")):
            if flag not in argv:
                argv = argv + [flag, value]
        argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
    else:
        (tmp_path / "in.json").write_text(json.dumps(config))
        flag = {"experiment": "--config", "spectrum": "--function"}.get(argv[0], "--dist")
        argv = argv + [flag, str(tmp_path / "in.json")]
        if flag == "--dist":
            argv += ["--function", parity_files[0]]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert names in err
    for written in ("f.json", "d.json", "c.json", "nodir"):
        assert not (tmp_path / written).exists()
    assert {p.name for p in tmp_path.iterdir()} <= {"in.json", "parity.json", "uniform.json"}


@pytest.mark.parametrize(
    "argv, config",
    [
        (["experiment"], {**GOOD_CONFIG, "trials": 10**30}),
        (["experiment"], {**GOOD_CONFIG, "eps": 1e-20}),
        (["run", "--k", "2", "--eps", "1e-20", "--seed", "1"], None),
    ],
)
def test_work_cap_exits_4(capsys, monkeypatch, tmp_path, junta_files, argv, config):
    """A sample budget past the work cap exits 4 before any trial runs."""
    def never(*args):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(cli, "run_trials", never)
    monkeypatch.setattr(cli, "run_trial", never)
    if config is None:
        argv = argv + ["--function", junta_files[0], "--dist", junta_files[1]]
    else:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        argv = argv + ["--config", str(tmp_path / "cfg.json")]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (4, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "work cap" in err


def test_random_function_redraws_stop_at_the_work_cap(capsys, monkeypatch, tmp_path):
    """A distance no random function reaches exits 4 once the walks run so far
    and the next one would pass the work cap, read when `gen` runs: three
    walks under a cap of three, not a hundred and then exit 3."""
    walks = []
    certify = harness.distance_to_k_junta
    monkeypatch.setattr(distribution, "WORK_CAP", 3 * distribution.walk_work(8, 2))
    monkeypatch.setattr(harness, "distance_to_k_junta", lambda *a: walks.append(a) or certify(*a))
    code, out, err = run_cli(
        capsys, "gen", "--kind", "random_function", "--n", "8", "--k", "2", "--eps", "0.6",
        "--seed", "1", "--out-function", str(tmp_path / "f.json"),
        "--out-dist", str(tmp_path / "d.json"),
    )
    assert (code, out, len(walks)) == (4, "", 3)
    assert err.startswith("error: the work of 4 distance walk(s)") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


# Valid documents on n=4 for the fuzz below: the function, distribution and
# config formats, each with and without its optional parts.
FUZZ_DOCS = {
    "function": [
        BooleanFunction.from_junta(4, [1, 3], [0, 1, 1, 0]).to_json(),
        {"n": 4, "table": "0110100110010110"},
    ],
    "dist": [
        {"n": 4, "dense": [1.0] * 8 + [2] * 8},
        {"n": 4, "support": [{"x": "1010", "w": 2}, {"x": 5, "w": 0.5}]},
    ],
    "config": [
        {"n": 4, "k": 1, "eps": 0.5, "trials": 2, "master_seed": 1, "variant": "amplified",
         "fixture": {"kind": "junta", "dist": "sparse", "support_size": 4}},
        {"n": 4, "k": 1, "eps": 0.5, "trials": 2, "master_seed": 1,
         "fixture": {"kind": "far", "family": "planted"}},
    ],
}
# string, list, object, null, bool, fraction, negative, large, an integer
# beyond the float range, and the largest float
FUZZ_VALUES = ["1", [1], {"n": 1}, None, True, 0.5, -1, 10**30, 10**400, 1e308]
FUZZ_ARGV = {
    "run": ["--k", "1", "--eps", "0.5", "--seed", "3"],
    "distance": ["--k", "1"],
    "spectrum": ["--cube-x", "0000", "--cube-y", "1011"],
    "experiment": [],
}


def _paths(doc, path=()):
    """The path of `doc` itself and of every value nested in it."""
    yield path
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _paths(value, path + (key,))


@st.composite
def mutated_command(draw):
    """A command and its input files, one of them mutated at one path: a key
    or list entry dropped, a key renamed, or a value retyped."""
    command = draw(st.sampled_from(sorted(FUZZ_ARGV)))
    names = {"run": ["function", "dist"], "distance": ["function", "dist"],
             "spectrum": ["function"], "experiment": ["config"]}[command]
    docs = {name: copy.deepcopy(draw(st.sampled_from(FUZZ_DOCS[name]))) for name in names}
    target = draw(st.sampled_from(names))
    path = draw(st.sampled_from(list(_paths(docs[target]))))
    op = draw(st.sampled_from(["drop", "rename", "retype"] if path else ["retype"]))
    value = draw(st.sampled_from(FUZZ_VALUES))
    if not path:
        docs[target] = value
    else:
        parent = docs[target]
        for key in path[:-1]:
            parent = parent[key]
        if op == "drop":
            del parent[path[-1]]
        elif op == "rename" and isinstance(parent, dict):
            parent[f"{path[-1]}x"] = parent.pop(path[-1])
        else:
            parent[path[-1]] = value
    return command, docs


@settings(max_examples=150, deadline=None)
@given(mutated_command())
def test_mutated_documents_exit_cleanly(tmp_path_factory, case):
    """Whatever one mutation does to a valid document, the command exits 0, 2,
    3 or 4, a non-zero exit prints one `error:` line and nothing else, and
    nothing raises."""
    command, docs = case
    folder = tmp_path_factory.mktemp("fuzz")
    argv = [command, *FUZZ_ARGV[command]]
    for name, doc in docs.items():
        (folder / name).write_text(json.dumps(doc))
        argv += [f"--{name}", str(folder / name)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 2, 3, 4)
    if code:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
    else:
        json.loads(out.getvalue())
