import contextlib
import hashlib
import io
import json
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import esdsim
import esdsim.cli as cli
import esdsim.discrimination as discrimination
import esdsim.fock as fock
import esdsim.optics as optics
import esdsim.protocols as protocols
from esdsim.cli import run


README = Path(__file__).resolve().parents[1] / "README.md"


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

    def test_state_name_is_canonical(self, tmp_path):
        reports = set()
        for name in ("psi1", "PSI1", "Psi1"):
            out = tmp_path / f"{name}.json"
            assert run(["discriminate", "--state", name, "--trials", "20", "--out", str(out)]) == 0
            reports.add(out.read_bytes())
        assert len(reports) == 1 and json.loads(reports.pop())["state"] == "psi1"
        out = tmp_path / "phi.json"
        assert run(["discriminate", "--d", "4", "--state", "PHI3", "--trials", "20", "--out", str(out)]) == 0
        assert json.loads(read(out))["state"] == "phi3"

    @pytest.mark.parametrize("name", ["psi", "phi", "psi01", "psi 1", "psi+1", "psi-0", " psi1", "psi1\n", "p\u017fi1"])
    def test_malformed_state_names(self, name, capsys):
        assert run(["discriminate", "--state", name, "--trials", "10"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "(use psi0..psi8 or phi0..phi2)" in captured.err


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
    def test_failed_dump_prints_nothing(self, tmp_path, capsys):
        assert run(["list-states", "--dump-state", str(tmp_path / "missing" / "x")]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")

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
        monkeypatch.setattr(cli, "measure", forbidden)
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


class TestSeedRange:
    @pytest.mark.parametrize("command", ["discriminate", "teleport", "mdiqkd"])
    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_outside_exits_2_before_writing(self, command, seed, tmp_path, monkeypatch, capsys):
        # the seed is checked with the other options, before any table is built
        def forbidden(*args, **kwargs):
            raise AssertionError("nothing may be built for a seed outside the range")

        for name in ("measure", "teleport_run", "mdi_qkd_run"):
            monkeypatch.setattr(cli, name, forbidden)
        out = tmp_path / "out"
        argv = [command, "--trials", "10", "--seed", str(seed), "--out", str(out)]
        if command == "discriminate":
            argv += ["--d", "6", "--state", "phi0"]
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --seed must lie in [0, 2**64)\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["discriminate", "teleport", "mdiqkd"])
    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_range_ends_exit_0(self, command, seed, tmp_path, capsys):
        out = tmp_path / "out"
        assert run([command, "--trials", "10", "--seed", str(seed), "--out", str(out)]) == 0
        assert out.stat().st_size > 0


def _option_values(*values):
    return st.sampled_from([str(v) for v in values])


# Each subcommand's option grammar: ints at and past each cap, except where
# a run at the cap takes seconds (the explicit tests above cover those
# caps), floats at the edges of every range, comma lists with blanks and
# signs, state names with non-ASCII case folds, seeds at both ends of
# [0, 2**64), and paths into missing directories or onto a directory.
_FLOATS = _option_values("nan", "inf", "-inf", "-0.0", "0", "1e-300", "0.1", "0.5", "1", 1 + 2**-52, 1 - 2**-53, "-1")
_TRIALS = _option_values(-1, 0, 1, 7, cli.MAX_TRIALS + 1, 2**64, 10**30)
_SEEDS = _option_values(-1, 0, 1, 2**64 - 1, 2**64, 10**30)
_PATHS = st.sampled_from(["out", "missing/out", "."])
_STATES = st.sampled_from(
    ["psi0", "psi8", "psi9", "PSI1", "Phi2", "phi5", "phi6", "phi-1", "phi+1", "psi01", " psi1", "", "x",
     "p\u017fi1", "PS\u01301", "PH\u01300", "\uff30\uff33\uff291", "psi\u0661"]
)
_D_PARTS = ["2", "3", "10", " 4", "+5", "-3", "0", "1", "", " ", "1e3", "x", str(10**30), "1" + "0" * 400, "\u0663"]
_GRAMMAR = {
    "list-states": {"d": _option_values(-1, 0, 1, 2, 3, 4, cli.MAX_D["list-states"] + 1, 2**64, 10**30),
                    "dump-state": _PATHS},
    "describe-tritter": {"d": _option_values(-1, 0, 1, 2, 3, 16, cli.MAX_D["describe-tritter"] + 1, 2**64, 10**30),
                         "out": _PATHS},
    "discriminate": {"d": _option_values(-1, 0, 1, 2, 3, 4, cli.MAX_DISCRIMINATE_D, cli.MAX_DISCRIMINATE_D + 1,
                                         2**64, 10**30),
                     "state": _STATES, "trials": _TRIALS, "eta": _FLOATS, "seed": _SEEDS, "out": _PATHS},
    "teleport": {"trials": _TRIALS, "seed": _SEEDS, "out": _PATHS},
    "mdiqkd": {"trials": _TRIALS, "eta": _FLOATS, "noise": _FLOATS, "seed": _SEEDS, "out": _PATHS},
    "keyrate": {"d": st.lists(st.sampled_from(_D_PARTS), max_size=4).map(",".join),
                "q-max": _FLOATS | _option_values("0.12"), "q-step": _FLOATS | _option_values("0.002", "1e-7"),
                "eta": _FLOATS, "d-max": _option_values(-1, 0, 1, 2, 30, cli.MAX_KEYRATE_ROWS + 2, 2**64, 10**30),
                "out": _PATHS},
}
_PATH_FLAGS = ("out", "dump-state")


class TestCliContract:
    """Every input either succeeds or exits 2 with one message line."""

    @pytest.mark.parametrize("command", sorted(_GRAMMAR))
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_exit_0_or_2_with_one_error_line(self, command, data, tmp_path_factory):
        directory = tmp_path_factory.getbasetemp() / "contract"
        directory.mkdir(exist_ok=True)
        argv = [command]
        if command == "keyrate":
            argv += data.draw(st.sampled_from([[], ["table"], ["thresholds"], ["bogus"]]))
        for flag, values in _GRAMMAR[command].items():
            value = data.draw(st.none() | values, label=flag)
            if value is not None:
                argv.append(f"--{flag}={directory / value if flag in _PATH_FLAGS else value}")
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = run(argv)
        error_lines = [line for line in stderr.getvalue().splitlines() if "error:" in line]
        assert (code, len(error_lines)) in ((0, 0), (2, 1)), (argv, code, stderr.getvalue())


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


def readme_commands(directory):
    """The `esdsim` lines of the README's CLI block, as argument lists that
    write their files into `directory`."""
    block = read(README).split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("esdsim ")]
    return [
        [str(directory / arg) if flag in ("--out", "--dump-state") else arg for flag, arg in zip([None] + argv, argv)]
        for argv in commands
    ]


class TestReadmeCommands:
    def test_documented_commands_exit_zero(self, tmp_path, capsys):
        commands = readme_commands(tmp_path)
        assert {argv[0] for argv in commands} == {
            "list-states", "describe-tritter", "discriminate", "teleport", "mdiqkd", "keyrate"
        }
        for argv in commands:
            assert run(argv) == 0, argv


class TestReadmeLayout:
    def test_names_every_module(self):
        section = read(README).split("\n## Layout\n", 1)[1].split("\n## ", 1)[0]
        documented = re.findall(r"^\| `esdsim\.(\w+)` \|", section, re.MULTILINE)
        modules = {path.stem for path in Path(esdsim.__file__).parent.glob("*.py")} - {"__init__"}
        assert sorted(documented) == sorted(modules)


class TestSharedParser:
    def readme_outputs(self, directory, capsys, fresh_parser):
        """Every README command's streams and files, each run on the parser
        left by the runs before it or on a newly built one."""
        directory.mkdir()
        streams = []
        for argv in readme_commands(directory):
            if fresh_parser:
                cli._build_parser.cache_clear()
            assert run(argv) == 0, argv
            streams.append(capsys.readouterr())
        return streams, {path.name: path.read_bytes() for path in sorted(directory.iterdir())}

    def test_reused_parser_matches_fresh_ones(self, tmp_path, capsys):
        cli._build_parser.cache_clear()
        assert run(["no-such-command"]) == 2
        assert run(["--help"]) == 0
        assert run(["teleport", "--help"]) == 0
        assert "--trials" in capsys.readouterr().out
        shared = self.readme_outputs(tmp_path / "shared", capsys, fresh_parser=False)
        assert cli._build_parser.cache_info().misses == 1
        assert shared == self.readme_outputs(tmp_path / "fresh", capsys, fresh_parser=True)

    def test_built_once(self, capsys):
        cli._build_parser.cache_clear()
        assert run(["keyrate", "thresholds", "--d-max", "3"]) == 0
        assert run(["keyrate", "--d", "3", "--q-max", "0.01", "--q-step", "0.01"]) == 0
        assert run(["no-such-command"]) == 2
        assert cli._build_parser.cache_info().misses == 1

    def test_import_builds_nothing(self):
        # the parser is built on the first `run`, and the commands that
        # sample nothing never import numpy.random
        def run_code(code):
            env = {"PYTHONPATH": str(Path(esdsim.__file__).parents[1])}
            done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
            return done.stdout.split()[-2:]

        if run_code("import sys, numpy; print('numpy.random' in sys.modules, 0)")[0] == "True":
            pytest.skip("importing numpy alone loads numpy.random")
        assert run_code(
            "import sys, esdsim.cli as cli\n"
            "info = cli._build_parser.cache_info()\n"
            "assert info.misses == info.currsize == 0, info\n"
            "for argv in (['keyrate'], ['keyrate', 'thresholds'], ['list-states'], ['describe-tritter']):\n"
            "    assert cli.run(argv) == 0\n"
            "print('numpy.random' in sys.modules, cli._build_parser.cache_info().misses)"
        ) == ["False", "1"]


class TestRuntimePaths:
    def test_no_sparse_measurement(self, monkeypatch, capsys):
        # the sparse algebra serves list-states and the tests only: no other
        # CLI path may build a basis state, a sparse state or a click pattern
        # object, convert a sparse state to a dense one, run the polynomial
        # evolution or take a sparse tensor product
        banned = {
            id(fock.FockBasisState): "FockBasisState",
            id(fock.PureState): "PureState",
            id(optics.dense_amplitudes): "dense_amplitudes",
            id(discrimination.DetectionPattern): "DetectionPattern",
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
        assert run(["discriminate", "--d", "3", "--state", "psi0", "--trials", "100"]) == 0
        assert run(["teleport", "--trials", "100"]) == 0
        assert run(["mdiqkd", "--trials", "100"]) == 0
        for d in range(2, 6):
            assert abs(protocols.generalized_conclusive_probability(d) - 1 / d) < 1e-12
