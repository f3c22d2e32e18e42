import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from liemarkov import RateModel, model_to_dict, sample_with_rng, zoo_model
from liemarkov.cli import EXIT_ERROR, EXIT_NOT_CLOSED, EXIT_OK, main

from conftest import pair_rng


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheck:
    def test_jc_closed(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--model", "jc", "--samples", "20", "--no-timestamp")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["closure"]["mult_closed_verdict"] == "closed"
        assert doc["closure"]["span_dim"] == 1
        assert doc["scaling_closed"] is True
        assert doc["constraints_homogeneous"] is None
        assert doc["config"]["seed"] == 42

    def test_lm88_closed(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--model", "lm88", "--samples", "20", "--no-timestamp")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["closure"]["span_dim"] == 8
        assert doc["closure"]["lie_closure_dim"] == 8

    def test_hky_not_closed(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--model", "hky", "--samples", "40", "--no-timestamp")
        assert code == EXIT_NOT_CLOSED
        doc = json.loads(out)
        assert doc["closure"]["mult_closed_verdict"] == "not_closed"
        assert doc["closure"]["witnesses"]
        assert doc["constraints_homogeneous"] is True

    def test_unknown_model(self, capsys):
        code, _, err = run_cli(capsys, "check", "--model", "nope.json")
        assert code == EXIT_ERROR
        assert "nope.json" in err

    def test_undecided_scaling_is_null(self, capsys, tmp_path):
        # jc at rate 0.1 with q12 - 0.1 = 0: an inhomogeneous constraint, so scaling is undecided.
        doc = model_to_dict(zoo_model("jc"))
        doc.update(name="jc-pinned", parameter_ranges=[[0.1, 0.1]],
                   constraints=[{"terms": [{"coeff": 1.0, "monomial": [[1, 2]]}, {"coeff": -0.1, "monomial": []}]}])
        del doc["basis"]
        path = tmp_path / "pinned.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, "check", "--model", str(path), "--samples", "20", "--no-timestamp")
        assert code == EXIT_NOT_CLOSED
        doc = json.loads(out)
        assert doc["scaling_closed"] is None
        assert doc["constraints_homogeneous"] is False
        code, out, _ = run_cli(capsys, "check", "--model", str(path), "--samples", "20", "--format", "text")
        assert "scaling closed: undecided" in out

    def test_bad_model_file(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"name": "x", "n": 4}')
        code, _, err = run_cli(capsys, "check", "--model", str(path))
        assert code == EXIT_ERROR
        assert "basis or constraints" in err

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1", "0"])
    def test_bad_tol(self, capsys, tol):
        # A NaN or infinite tol would hide every witness, and a zero one refute on rounding.
        code, out, err = run_cli(capsys, "check", "--model", "lm88", "--tol", tol)
        assert code == EXIT_ERROR
        assert out == ""
        assert err.startswith("error: tol must be a positive finite number")

    def test_constraint_index_beyond_order(self, capsys, tmp_path):
        # Samplable, so the audit would reach the constraint compiler if the file loaded.
        doc = model_to_dict(zoo_model("hky"))
        doc["constraints"] = [{"terms": [{"coeff": 1.0, "monomial": [[1, 5]]}]}]
        path = tmp_path / "short.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "check", "--model", str(path))
        assert code == EXIT_ERROR
        assert out == ""
        assert err == "error: constraint index (1, 5) out of range for order 4\n"

    def test_timestamp_toggle(self, capsys):
        _, out, _ = run_cli(capsys, "check", "--model", "jc", "--samples", "5")
        assert "timestamp" in json.loads(out)
        _, out, _ = run_cli(capsys, "check", "--model", "jc", "--samples", "5", "--no-timestamp")
        assert "timestamp" not in json.loads(out)

    def test_deterministic_reports(self, capsys):
        args = ("check", "--model", "hky", "--seed", "42", "--no-timestamp")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys, "check", "--model", "jc", "--samples", "5",
            "--no-timestamp", "--output", str(path),
        )
        assert code == EXIT_OK
        assert out == ""
        assert json.loads(path.read_text())["model"] == "jc"

    def test_text_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", "--model", "jc", "--samples", "5",
            "--no-timestamp", "--format", "text",
        )
        assert code == EXIT_OK
        assert "verdict: closed" in out


class TestModelLoadErrors:
    @pytest.mark.parametrize("command", ["check", "closure", "sample", "export"])
    def test_range_count_mismatch(self, command, capsys, tmp_path):
        # Refused on load, so every subcommand reports it, not a sampler or audit failure.
        doc = model_to_dict(zoo_model("hky"))
        doc["parameter_ranges"] = doc["parameter_ranges"][:3]
        path = tmp_path / "short-ranges.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, command, "--model", str(path))
        assert code == EXIT_ERROR
        assert out == ""
        assert err == "error: model 'hky' declares 3 ranges but parameterization 'hky' takes 5\n"

    @pytest.mark.parametrize("bound", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_range(self, bound, capsys, tmp_path):
        # Refused on load under the field's name, not as non-finite matrix entries at the first draw.
        doc = model_to_dict(zoo_model("jc"))
        doc["parameter_ranges"] = [[0.001, bound]] if bound > 0 else [[bound, 0.05]]
        path = tmp_path / "open-range.json"
        # JSON's Infinity, -Infinity and NaN literals.
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "check", "--model", str(path))
        assert code == EXIT_ERROR
        assert out == ""
        assert err.startswith("error: parameter_ranges must be finite") and err.count("\n") == 1

    @pytest.mark.parametrize("entry", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_basis_entry(self, entry, capsys, tmp_path):
        # Refused on load under the field's name, not as non-finite matrix entries in the audit.
        doc = model_to_dict(zoo_model("jc"))
        doc["basis"][0][1] = entry
        path = tmp_path / "non-finite-basis.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "check", "--model", str(path))
        assert code == EXIT_ERROR
        assert out == ""
        assert err == "error: basis: matrix entries must be finite\n"

    @pytest.mark.parametrize("index", [2.7, 1.0, True, "2"])
    def test_non_integer_constraint_index(self, index, capsys, monkeypatch):
        doc = model_to_dict(zoo_model("hky"))
        doc["constraints"][0]["terms"][0]["monomial"] = [[index, 3]]
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
        code, out, err = run_cli(capsys, "check", "--model", "-")
        assert code == EXIT_ERROR
        assert out == ""
        assert err.startswith("error: model file field 'constraints': ") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["check", "closure", "sample", "export"])
    @pytest.mark.parametrize("field, value", [
        ("name", None),
        ("basis", 5),
        ("constraints", 5),
        ("parameter_ranges", 5),
        ("parameter_ranges", [[0.001, 0.05, 0.1]] * 5),
        # JSON's NaN literal loads as a float; a NaN coefficient would leave every draw rejected.
        ("constraints", [{"terms": [{"coeff": float("nan"), "monomial": [[1, 2]]}]}]),
    ])
    def test_malformed_field(self, command, field, value, capsys, tmp_path):
        doc = model_to_dict(zoo_model("hky"))
        doc[field] = value
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, command, "--model", str(path))
        assert code == EXIT_ERROR
        assert out == ""
        assert err.startswith("error: ") and field in err and err.count("\n") == 1


class TestUsageErrors:
    # argparse's own status 2 would read as EXIT_NOT_CLOSED.
    @pytest.mark.parametrize(
        "argv",
        [
            ("check", "--model", "jc", "--bogus"),
            ("check", "--model", "jc", "--samples", "x"),
            ("check", "--model", "jc", "--chain-length", "3"),
            ("nope",),
            ("bch",),
            (),
            # Flags a subcommand would ignore are refused.
            ("repro-paper", "--model", "gtr"),
            ("export", "--format", "text"),
            ("closure", "--tol", "1"),
            ("sample", "--tol", "1"),
        ],
    )
    def test_usage_error_is_exit_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_ERROR
        assert out == ""
        assert "usage:" in err

    def test_help_exits_ok(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--help")
        assert code == EXIT_OK
        assert "--samples" in out and "--chain-length" not in out

    @pytest.mark.parametrize("seed", ["-1", str(2**128)])
    @pytest.mark.parametrize("argv", [("check",), ("sample",), ("closure", "--model", "gtr")])
    def test_seed_outside_the_key_range(self, capsys, argv, seed):
        # Every command that draws refuses a seed that is no Philox key, in one line naming both.
        code, out, err = run_cli(capsys, *argv, "--seed", seed)
        assert code == EXIT_ERROR
        assert out == "" and err == f"error: seed must be in [0, 2**128), got {seed}\n"


    @pytest.mark.parametrize(
        "argv, keys",
        [
            (("check", "--model", "jc", "--samples", "5"), ["model", "seed", "samples", "tol", "format", "output"]),
            (("closure", "--model", "jc"), ["model", "seed", "samples", "format", "output"]),
            (("sample", "--model", "jc", "--samples", "1"), ["model", "seed", "samples", "format", "output"]),
            (("repro-paper",), ["samples", "format", "output"]),
        ],
    )
    def test_config_lists_the_subcommand_flags(self, capsys, argv, keys):
        code, out, _ = run_cli(capsys, *argv, "--no-timestamp")
        assert code == EXIT_OK
        assert list(json.loads(out)["config"]) == ["command", *keys]


class TestClosure:
    def test_hky_dimension(self, capsys):
        code, out, _ = run_cli(capsys, "closure", "--model", "hky", "--no-timestamp")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["span_dim"] == 8
        assert doc["lie_closure_dim"] == 8
        assert len(doc["basis"]) == 8

    def test_seed_moves_a_sampled_span(self, capsys):
        # gtr has no basis, so closure samples its span at --seed, not the seed-0 span its model
        # keeps: the bases differ bit for bit, and both span all of L.
        bases = []
        for seed in ("1", "2"):
            code, out, _ = run_cli(capsys, "closure", "--model", "gtr", "--seed", seed, "--no-timestamp")
            doc = json.loads(out)
            assert (code, doc["span_dim"], doc["lie_closure_dim"]) == (EXIT_OK, 12, 12)
            bases.append(np.reshape(doc["basis"], (12, 16)))
        assert not np.array_equal(*bases)
        first, second = (v.T @ v for v in bases)
        assert np.abs(first - second).max() <= 1e-12

    def test_nearly_parallel_basis(self, capsys, tmp_path):
        # jc and jc + 1e-6 k2p_0 span k2p's span; their thin SVD row once failed lie_closure's check.
        jc, k2p = zoo_model("jc").basis[0], zoo_model("k2p").basis[0]
        path = tmp_path / "near.json"
        path.write_text(json.dumps(model_to_dict(RateModel(name="near", n=4, basis=(jc, jc + 1e-6 * k2p)))))
        for command in ("check", "closure"):
            code, out, _ = run_cli(capsys, command, "--model", str(path), "--no-timestamp")
            doc = json.loads(out)
            dims = doc["closure"] if command == "check" else doc
            assert (code, dims["span_dim"], dims["lie_closure_dim"]) == (EXIT_OK, 2, 2)


class TestSample:
    def test_deterministic_and_valid(self, capsys):
        args = ("sample", "--model", "gtr", "--samples", "3", "--seed", "7", "--no-timestamp")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second
        doc = json.loads(first)
        assert len(doc["matrices"]) == 3
        q = np.array(doc["matrices"][0])
        assert np.abs(q.sum(axis=0)).max() < 1e-12


    @pytest.mark.parametrize("name", ["hky", "gtr", "k2p-span"])
    def test_matches_per_seed_draws(self, name, capsys, tmp_path):
        # Sample i is the draw of stream i, pair_rng(seed, i); k2p's span rejects most draws, so rows redraw.
        if name == "k2p-span":
            model = RateModel(name=name, n=4, basis=zoo_model("k2p").basis)
            ref = tmp_path / "k2p-span.json"
            ref.write_text(json.dumps(model_to_dict(model)))
        else:
            model, ref = zoo_model(name), name
        seed = 2**32 - 4
        code, out, _ = run_cli(capsys, "sample", "--model", str(ref), "--samples", "9",
                               "--seed", str(seed), "--no-timestamp")
        assert code == EXIT_OK
        mats = np.array(json.loads(out)["matrices"])
        for i in range(9):
            np.testing.assert_array_equal(mats[i], sample_with_rng(model, pair_rng(seed, i)))

    @pytest.mark.parametrize("samples", ["0", "-2", "-3"])
    def test_no_samples(self, samples, capsys):
        # Refused, as check refuses it.
        code, out, err = run_cli(capsys, "sample", "--model", "jc", "--samples", samples, "--no-timestamp")
        assert code == EXIT_ERROR
        assert out == "" and err == "error: samples must be at least 1\n"
        assert run_cli(capsys, "check", "--model", "jc", "--samples", samples) == (code, out, err)

    def test_exhausted_sampler_is_an_error(self, capsys, tmp_path):
        # Off-diagonal entries of both signs: no multiple of the basis matrix is a rate matrix.
        bad = np.zeros((4, 4))
        bad[0, 1], bad[1, 1], bad[0, 2], bad[2, 2] = 1.0, -1.0, -1.0, 1.0
        path = tmp_path / "stuck.json"
        path.write_text(json.dumps(model_to_dict(RateModel(name="stuck", n=4, basis=(bad,)))))
        code, out, err = run_cli(capsys, "sample", "--model", str(path), "--samples", "3")
        assert code == EXIT_ERROR
        assert out == ""
        assert err.startswith("error:") and "attempts" in err

    def test_negative_seed_is_an_error(self, capsys):
        code, out, err = run_cli(capsys, "sample", "--seed", "-1", "--samples", "2")
        assert code == EXIT_ERROR
        assert out == "" and err == "error: seed must be in [0, 2**128), got -1\n"


class TestReproPaper:
    def test_reference_computation(self, capsys):
        code, out, _ = run_cli(capsys, "repro-paper", "--no-timestamp")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["max_deviation"] <= 1e-5
        assert doc["alphas"] == pytest.approx(doc["reference_alphas"], abs=1e-6)
        kappas = doc["kappas"]
        assert min(kappas) > 1.44 and max(kappas) < 1.452
        assert len(set(round(k, 3) for k in kappas)) == 4

    def test_text_output(self, capsys):
        code, out, _ = run_cli(capsys, "repro-paper", "--no-timestamp", "--format", "text")
        assert code == EXIT_OK
        assert "max entrywise deviation" in out


class TestExport:
    def test_round_trip_through_check(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "lm88.json"
        code, _, _ = run_cli(capsys, "export", "--model", "lm88", "--output", str(path))
        assert code == EXIT_OK
        doc = json.loads(path.read_text())
        assert doc["name"] == "lm88"
        assert len(doc["basis"]) == 8

        direct_code, direct_out, _ = run_cli(
            capsys, "check", "--model", "lm88", "--samples", "10", "--no-timestamp"
        )
        file_code, file_out, _ = run_cli(
            capsys, "check", "--model", str(path), "--samples", "10", "--no-timestamp"
        )
        assert direct_code == file_code == EXIT_OK
        direct_doc = json.loads(direct_out)
        file_doc = json.loads(file_out)
        assert direct_doc["closure"] == file_doc["closure"]

        # '--model -' reads the exported file from stdin, like a pipe.
        monkeypatch.setattr("sys.stdin", io.StringIO(path.read_text()))
        stdin_code, stdin_out, _ = run_cli(
            capsys, "check", "--model", "-", "--samples", "10", "--no-timestamp"
        )
        assert stdin_code == EXIT_OK
        assert json.loads(stdin_out)["closure"] == direct_doc["closure"]

    def test_export_stdout(self, capsys):
        code, out, _ = run_cli(capsys, "export", "--model", "hky")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["parameterization"] == "hky"
        assert len(doc["constraints"]) == 10


class TestImports:
    def test_draw_paths_do_not_load_numpy_random(self):
        # Every draw is a Philox block computed by _SeedStreams, so no command needs numpy.random's import.
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))

        def loaded(code):
            proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                  check=True, timeout=120, env=env)
            return proc.stdout.strip() == "True"

        probe = "import sys; {}; print('numpy.random' in sys.modules)"
        if loaded(probe.format("import numpy")):
            pytest.skip("this numpy loads numpy.random on import")
        commands = ("main(['check', '--model', 'hky']); main(['closure', '--model', 'gtr']); "
                    "main(['sample', '--model', 'gtr', '--samples', '3', '--seed', '1'])")
        run = ("import io, contextlib; from liemarkov.cli import main\n"
               f"with contextlib.redirect_stdout(io.StringIO()): {commands}")
        assert not loaded(probe.format(run))
