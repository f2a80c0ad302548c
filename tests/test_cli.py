import hashlib
import json
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import esdsim
import esdsim.cli as cli
import esdsim.discrimination as discrimination
import esdsim.fock as fock
import esdsim.optics as optics
import esdsim.protocols as protocols
from esdsim.cli import run


def read(path):
    return path.read_text(encoding="utf-8")


class TestKeyrateCommand:
    def test_table_row_count(self, tmp_path, capsys):
        out = tmp_path / "rates.csv"
        assert run(["keyrate", "--d", "2,3", "--q-max", "0.05", "--q-step", "0.01", "--out", str(out)]) == 0
        lines = read(out).strip().splitlines()
        assert lines[0] == "d,Q,r_sifted,R_total"
        assert len(lines) == 1 + 12

    def test_thresholds_mode(self, tmp_path):
        out = tmp_path / "thr.csv"
        assert run(["keyrate", "thresholds", "--d-max", "5", "--out", str(out)]) == 0
        lines = read(out).strip().splitlines()
        assert lines[0] == "d,eta_threshold"
        assert len(lines) == 1 + 4
        d3 = float(lines[2].split(",")[1])
        assert abs(d3 - 0.6933612743506347) < 1e-12

    def test_eta_column(self, tmp_path):
        out = tmp_path / "rates.csv"
        run(["keyrate", "--d", "3", "--q-max", "0.01", "--q-step", "0.01", "--eta", "0.9", "--out", str(out)])
        lines = read(out).strip().splitlines()
        assert lines[0] == "d,Q,r_sifted,R_total,eta"


class TestDiscriminateCommand:
    def test_conclusive_report(self, tmp_path):
        out = tmp_path / "report.json"
        code = run(
            ["discriminate", "--d", "3", "--state", "psi1", "--trials", "1000",
             "--eta", "1", "--seed", "7", "--out", str(out)]
        )
        assert code == 0
        report = json.loads(read(out))
        assert sum(report["counts"].values()) == 1000
        assert report["counts"] == {"conclusive(1)": 1000}
        assert abs(report["analytic"]["conclusive(1)"] - 1.0) < 1e-9

    def test_phi_state_other_dimension(self, tmp_path):
        out = tmp_path / "report.json"
        assert run(["discriminate", "--d", "2", "--state", "phi1", "--trials", "50",
                    "--seed", "1", "--out", str(out)]) == 0
        report = json.loads(read(out))
        assert report["counts"] == {"conclusive(1)": 50}

    def test_largest_dimension(self, tmp_path):
        out = tmp_path / "report.json"
        assert cli.MAX_DISCRIMINATE_D == 6
        assert run(["discriminate", "--d", "6", "--state", "phi5", "--trials", "200",
                    "--seed", "3", "--out", str(out)]) == 0
        report = json.loads(read(out))
        assert report["counts"] == {"conclusive(5)": 200}

    def test_unknown_state_is_config_error(self, capsys):
        assert run(["discriminate", "--state", "nope", "--trials", "10"]) == 2


class TestTeleportCommand:
    def test_report(self, tmp_path):
        out = tmp_path / "tele.json"
        assert run(["teleport", "--trials", "500", "--seed", "1", "--out", str(out)]) == 0
        report = json.loads(read(out))
        assert abs(report["mean_conclusive_fidelity"] - 1.0) < 1e-9
        assert abs(report["conclusive_fraction"] - 1 / 3) < 0.07  # 3 sigma at n=500


class TestMdiqkdCommand:
    def test_records_csv(self, tmp_path, capsys):
        out = tmp_path / "records.csv"
        assert run(["mdiqkd", "--trials", "400", "--eta", "0.9", "--seed", "5", "--out", str(out)]) == 0
        lines = read(out).strip().splitlines()
        assert lines[0] == (
            "trial,alice_basis,alice_value,bob_basis,bob_value,outcome,sifted,alice_symbol,bob_symbol"
        )
        assert len(lines) == 1 + 400
        summary = json.loads(capsys.readouterr().out)
        assert summary["qber"] == 0.0
        sifted_lines = [l for l in lines[1:] if l.split(",")[6] == "1"]
        for line in sifted_lines:
            cols = line.split(",")
            assert cols[7] == cols[8]  # symbols agree without noise

    def test_csv_independent_of_chunk_size(self, tmp_path, monkeypatch):
        def csv(n, name):
            out = tmp_path / name
            assert run(["mdiqkd", "--trials", str(n), "--eta", "0.9", "--noise", "0.2", "--seed", "8",
                        "--out", str(out)]) == 0
            return read(out)

        whole = csv(100, "whole.csv")
        monkeypatch.setattr(protocols, "CHUNK_ROWS", 7)
        monkeypatch.setattr(cli, "CHUNK_ROWS", 7)
        assert csv(100, "chunked.csv") == whole
        head = csv(30, "head.csv")
        assert whole.startswith(head) and head.count("\n") == 31

    def test_leaves_numpy_ma_unloaded(self, tmp_path):
        # a plain np.unique imports numpy.ma lazily, which costs more than a
        # small run itself
        def loads_numpy_ma(code):
            env = {"PYTHONPATH": str(Path(esdsim.__file__).parents[1])}
            done = subprocess.run([sys.executable, "-c", f"{code}; import sys; print('numpy.ma' in sys.modules)"],
                                  env=env, capture_output=True, text=True, check=True)
            return done.stdout.split()[-1] == "True"

        if loads_numpy_ma("import numpy"):
            pytest.skip("importing numpy alone loads numpy.ma")
        out = tmp_path / "records.csv"
        assert not loads_numpy_ma(
            f"from esdsim.cli import run; assert run(['mdiqkd', '--trials', '2000', '--noise', '0.1', "
            f"'--out', {str(out)!r}]) == 0"
        )
        assert read(out).count("\n") == 2001


class TestListStatesCommand:
    def test_prints_families_and_dumps_json(self, tmp_path, capsys):
        dump = tmp_path / "states.json"
        assert run(["list-states", "--d", "3", "--dump-state", str(dump)]) == 0
        text = capsys.readouterr().out
        assert text.count("psi") == 9 and text.count("phi") == 3
        doc = json.loads(read(dump))
        assert set(doc) == {f"psi{i}" for i in range(9)} | {f"phi{i}" for i in range(3)}
        term = doc["psi0"][0]
        assert set(term) == {"modes", "re", "im"}


class TestDescribeTritterCommand:
    def test_json_shape(self, tmp_path):
        out = tmp_path / "net.json"
        assert run(["describe-tritter", "--d", "3", "--out", str(out)]) == 0
        doc = json.loads(read(out))
        assert doc["dim"] == 3
        splitter_ts = sorted(
            el["transmissivity"] for el in doc["elements"] if el["type"] == "beam_splitter"
        )
        assert len(splitter_ts) == 3
        assert abs(splitter_ts[2] - 2 / 3) < 1e-9


class TestDeterminism:
    def test_byte_identical_outputs(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            run(["mdiqkd", "--trials", "150", "--eta", "0.8", "--noise", "0.05",
                 "--seed", "11", "--out", str(path)])
        assert read(a) == read(b)

        c, d = tmp_path / "c.json", tmp_path / "d.json"
        for path in (c, d):
            run(["discriminate", "--state", "psi2", "--trials", "200", "--seed", "3",
                 "--out", str(path)])
        assert read(c) == read(d)

        e, f = tmp_path / "e.json", tmp_path / "f.json"
        for path in (e, f):
            run(["teleport", "--trials", "300", "--seed", "5", "--out", str(path)])
        assert read(e) == read(f)


class TestGoldenOutputs:
    """sha256 digests of discrete outputs, pinned so that rewrites of the
    samplers or the CSV writer stay byte-exact."""

    def test_digests(self, tmp_path, capsys):
        csv = tmp_path / "records.csv"
        run(["mdiqkd", "--trials", "2000", "--eta", "0.9", "--noise", "0.1", "--seed", "3", "--out", str(csv)])
        assert hashlib.sha256(csv.read_bytes()).hexdigest() == (
            "5b291d69454ca2b090d6bad57409d96dc4cbdbf7ab70a2e28ee4770675132166"
        )
        digests = {}
        for argv in (["discriminate", "--state", "psi1", "--trials", "2000", "--eta", "0.9"],
                     ["teleport", "--trials", "2000"]):
            report = tmp_path / "report.json"
            assert run([*argv, "--seed", "3", "--out", str(report)]) == 0
            counts = json.dumps(json.loads(read(report))["counts"], sort_keys=True)
            digests[argv[0]] = hashlib.sha256(counts.encode()).hexdigest()
        assert digests == {
            "discriminate": "b8f1aa3d11be535d79ff44af2ef80e2b3b623469614d3357807d72cecbbccb17",
            "teleport": "581777da018d3270e0917133580bf6ad423c4aeefbeb175d8c5f91b7071e00fc",
        }

    def test_mdiqkd_noise_edges(self, tmp_path, capsys):
        # high noise with the summary on stdout, and the noise-free defaults
        # with the CSV on stdout and the summary on stderr
        def sha(text):
            return hashlib.sha256(text if isinstance(text, bytes) else text.encode()).hexdigest()

        csv = tmp_path / "records.csv"
        assert run(["mdiqkd", "--trials", "3000", "--eta", "0.7", "--noise", "0.3", "--seed", "1",
                    "--out", str(csv)]) == 0
        summary = capsys.readouterr().out
        assert sha(csv.read_bytes()) == "f4f0e7a37486489de697edf4c87f55622cc7ca6a28a6ecbca9b7d3b573ff496e"
        assert sha(summary) == "968f77c46949b3ebd64a68f27933cfb1464d9676fbec60ad938f8bd334cca2d9"
        assert run(["mdiqkd", "--trials", "1000", "--seed", "2"]) == 0
        captured = capsys.readouterr()
        assert sha(captured.out) == "432432206d74243aa42b879463695180040f240fd3407edb04296f584d5a1529"
        assert sha(captured.err) == "76183aa5dfb7c4c81a020f0fb2ff8b9225156e84f29db079a25eb6cabdfd90ea"


class TestErrorPaths:
    def test_usage_error_exit_code(self):
        assert run(["no-such-command"]) == 2

    def test_bad_eta(self):
        assert run(["mdiqkd", "--trials", "5", "--eta", "2.0"]) == 2

    def test_bad_trials(self):
        assert run(["teleport", "--trials", "0"]) == 2

    def test_zero_q_step(self, capsys):
        assert run(["keyrate", "--d", "3", "--q-step", "0"]) == 2
        assert "--q-step" in capsys.readouterr().err

    def test_negative_q_step(self, capsys):
        assert run(["keyrate", "--d", "3", "--q-step", "-0.01"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--q-step" in captured.err

    def test_negative_q_max(self, capsys):
        assert run(["keyrate", "--d", "3", "--q-max", "-0.1"]) == 2
        assert "--q-max" in capsys.readouterr().err

    def test_oversized_q_grid(self, capsys):
        assert run(["keyrate", "--d", "3", "--q-max", "0.5", "--q-step", "1e-7"]) == 2
        assert "Q values" in capsys.readouterr().err
        assert run(["keyrate", "--d", "3", "--q-max", "0.5", "--q-step", "1e-320"]) == 2

    def test_discriminate_dimension_limit(self, monkeypatch, capsys):
        def forbidden(*args):
            raise AssertionError("nothing may be built past the dimension limit")

        monkeypatch.setattr(cli, "_named_state", forbidden)
        monkeypatch.setattr(cli, "outcome_table", forbidden)
        assert run(["discriminate", "--d", str(cli.MAX_DISCRIMINATE_D + 1), "--state", "phi1"]) == 2
        assert f"limit of {cli.MAX_DISCRIMINATE_D}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["list-states", "describe-tritter"])
    def test_dimension_limit(self, command, monkeypatch, capsys):
        def forbidden(*args):
            raise AssertionError("nothing may be built past the dimension limit")

        for name in ("build_phi", "build_psi", "decompose_dft"):
            monkeypatch.setattr(cli, name, forbidden)
        assert run([command, "--d", str(cli.MAX_D[command] + 1)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and f"limit of {cli.MAX_D[command]} for {command}" in captured.err

    def test_oversized_keyrate_table(self, monkeypatch, capsys):
        def forbidden(*args, **kwargs):
            raise AssertionError("nothing may be built past the row limit")

        monkeypatch.setattr(cli.kr, "keyrate_table", forbidden)
        dims = ",".join(str(d) for d in range(2, 102))
        assert run(["keyrate", "--d", dims, "--q-max", "0.5", "--q-step", "1e-6"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and f"more than {cli.MAX_KEYRATE_ROWS} rows" in captured.err

    def test_trials_upper_bound(self, monkeypatch, capsys):
        def forbidden(*args, **kwargs):
            raise AssertionError("nothing may run past the trial limit")

        for name in ("_named_state", "teleport_run", "mdi_qkd_run"):
            monkeypatch.setattr(cli, name, forbidden)
        too_many = str(cli.MAX_TRIALS + 1)
        for command in ("discriminate", "teleport", "mdiqkd"):
            assert run([command, "--trials", too_many]) == 2
            assert f"[1, {cli.MAX_TRIALS}]" in capsys.readouterr().err

    def test_d_max_upper_bound(self, capsys):
        assert run(["keyrate", "thresholds", "--d-max", str(cli.MAX_KEYRATE_ROWS + 2)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--d-max" in captured.err

    @pytest.mark.parametrize("d_list", ["--d=", "--d=,"])
    def test_empty_d_list(self, d_list, capsys):
        assert run(["keyrate", d_list]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--d must list at least one dimension" in captured.err

    @pytest.mark.parametrize("d_max", ["1", "-5"])
    def test_d_max_below_two(self, d_max, capsys):
        assert run(["keyrate", "thresholds", "--d-max", d_max]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--d-max must be >= 2" in captured.err


class TestMdiqkdSummaryStream:
    def test_summary_on_stderr_without_out(self, capsys):
        assert run(["mdiqkd", "--trials", "30", "--seed", "4"]) == 0
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert lines[0].startswith("trial,alice_basis") and len(lines) == 31
        summary = json.loads(captured.err)
        assert summary["trials"] == 30 and set(summary) >= {"sift_rate", "qber"}

    def test_stdout_matches_out_file(self, tmp_path, capsys):
        out = tmp_path / "records.csv"
        run(["mdiqkd", "--trials", "30", "--seed", "4", "--out", str(out)])
        capsys.readouterr()
        run(["mdiqkd", "--trials", "30", "--seed", "4"])
        assert capsys.readouterr().out == read(out)


def readme_commands():
    """The `esdsim` lines of the README's CLI block, as argument lists."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("esdsim ")]


class TestReadmeCommands:
    def test_documented_commands_exit_zero(self, tmp_path, capsys):
        commands = readme_commands()
        assert {argv[0] for argv in commands} == {
            "list-states", "describe-tritter", "discriminate", "teleport", "mdiqkd", "keyrate"
        }
        for argv in commands:
            argv = [
                str(tmp_path / arg) if flag in ("--out", "--dump-state") else arg
                for flag, arg in zip([None] + argv, argv)
            ]
            assert run(argv) == 0, argv


class TestRuntimePaths:
    def test_no_sparse_measurement(self, monkeypatch, capsys):
        # the sparse reference serves the tests only: no CLI path may build a
        # click pattern object, project parity sparsely, run the polynomial
        # evolution or take a sparse tensor product
        banned = {
            id(discrimination.DetectionPattern): "DetectionPattern",
            id(discrimination.parity_postselect): "parity_postselect",
            id(optics.apply_mode_unitary): "apply_mode_unitary",
            id(fock.tensor): "tensor",
        }

        def stub(name):
            def forbidden(*args, **kwargs):
                raise AssertionError(f"{name} called on a runtime path")

            return forbidden

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] != "esdsim":
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in banned:
                    monkeypatch.setattr(module, attr, stub(banned[id(value)]))
                elif hasattr(value, "cache_clear"):
                    value.cache_clear()
        for d in range(2, 7):
            assert run(["discriminate", "--d", str(d), "--state", "phi1", "--trials", "100"]) == 0
        assert run(["teleport", "--trials", "100"]) == 0
        assert run(["mdiqkd", "--trials", "100"]) == 0
