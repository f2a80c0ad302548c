import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import esdsim
import esdsim.cli as cli
import esdsim.discrimination as discrimination
import esdsim.optics as optics
import esdsim.protocols as protocols
import esdsim.sampling as sampling
import esdsim.states as states
from esdsim.cli import run
from sparse_reference import build_phi, build_psi, state_text, state_to_json


README = Path(__file__).resolve().parents[1] / "README.md"


def read(path):
    return path.read_text(encoding="utf-8")


def child_env():
    """This environment with the package source first on PYTHONPATH."""
    paths = [str(Path(esdsim.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}


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

    def test_independent_of_chunk_size(self, monkeypatch, capsys):
        def outputs():
            for argv in (["keyrate", "--eta", "0.5"], ["keyrate", "thresholds", "--d-max", "30"]):
                assert run(argv) == 0
                yield capsys.readouterr().out

        whole = list(outputs())
        monkeypatch.setattr(cli, "TEXT_ROWS", 7)
        assert list(outputs()) == whole

    def test_q_grid_stops_at_q_max(self, capsys):
        # the grid holds the i * q_step up to --q-max: 0.011 / 0.002 = 5.5
        # ends at Q = 0.01, and 0.9999 / 0.5 at Q = 0.5
        for q_max, q_step, last in (("0.011", "0.002", "0.01"), ("0.9999", "0.5", "0.5"), ("0.12", "0.002", "0.12")):
            assert run(["keyrate", "--d", "3", "--q-max", q_max, "--q-step", q_step]) == 0
            assert capsys.readouterr().out.splitlines()[-1].split(",")[1] == last


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

    def test_largest_dimension_report_digest(self, tmp_path):
        # the whole d = 6 report, pinned so that a change of the code dtype
        # or of the sampler keeps every byte
        out = tmp_path / "report.json"
        assert run(["discriminate", "--d", "6", "--state", "phi2", "--trials", "20000", "--eta", "0.9",
                    "--seed", "3", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "69cf2d5da54eb85c418b01d5655796eedc8a0b42bef3d90d430179b74f49da07"
        )

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
        monkeypatch.setattr(sampling, "CHUNK_ROWS", 7)
        monkeypatch.setattr(cli, "TEXT_ROWS", 7)
        assert csv(100, "chunked.csv") == whole
        head = csv(30, "head.csv")
        assert whole.startswith(head) and head.count("\n") == 31

    def test_leaves_numpy_ma_unloaded(self, tmp_path):
        # a plain np.unique imports numpy.ma lazily, which costs more than a
        # small run itself
        def loads_numpy_ma(code):
            env = child_env()
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

    @pytest.mark.parametrize("d", range(2, 7))
    def test_matches_sparse_reference(self, d, tmp_path, capsys):
        # the text and JSON written from the dense arrays equal those of the
        # sparse states, for every member
        dump = tmp_path / "states.json"
        assert run(["list-states", "--d", str(d), "--dump-state", str(dump)]) == 0
        named = [(f"psi{i}", build_psi(i)) for i in range(9 if d == 3 else 0)]
        named += [(f"phi{i}", build_phi(i, d)) for i in range(d)]
        assert capsys.readouterr().out == "".join(f"{name} = {state_text(state)}\n" for name, state in named)
        payload = {name: state_to_json(state) for name, state in named}
        assert read(dump) == json.dumps(payload, indent=2, sort_keys=True) + "\n"


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


def on_both_uniform_sources(monkeypatch):
    """Yield twice: first with every run's uniforms drawn by numpy's C
    Philox, then with every run's uniforms computed by the kernel, each run
    as the first of a fresh process that has not loaded numpy.random.  The
    unused source fails."""
    def unused(*args):
        raise AssertionError("a run drew its uniforms from the other source")

    def first_run(*args):
        monkeypatch.setattr(sampling, "_first_run", True)
        return uniform_chunks(*args)

    kernel, uniform_chunks = sampling._philox_uniforms, protocols.uniform_chunks
    monkeypatch.setattr(sampling, "KERNEL_BUDGET", 0)
    monkeypatch.setattr(sampling, "_philox_uniforms", unused)
    yield
    monkeypatch.setattr(sampling, "KERNEL_BUDGET", 10**12)
    monkeypatch.setattr(protocols, "uniform_chunks", first_run)
    monkeypatch.setattr(sampling, "_philox_uniforms", kernel)
    monkeypatch.setattr(sampling, "derive_rng", unused)
    monkeypatch.delitem(sys.modules, "numpy.random", raising=False)
    yield


class TestGoldenOutputs:
    """sha256 digests of discrete outputs, pinned so that rewrites of the
    samplers or the CSV writer stay byte-exact.  Every sampling command runs
    on both sources of uniforms (discriminate draws its d + 1 and teleport
    its 4 with `philox_head` on either)."""

    def test_digests(self, tmp_path, capsys, monkeypatch):
        for _ in on_both_uniform_sources(monkeypatch):
            self.check_digests(tmp_path)

    @staticmethod
    def check_digests(tmp_path):
        csv = tmp_path / "records.csv"
        run(["mdiqkd", "--trials", "2000", "--eta", "0.9", "--noise", "0.1", "--seed", "3", "--out", str(csv)])
        assert hashlib.sha256(csv.read_bytes()).hexdigest() == (
            "f577a206b255b270264158bd4902977cc09704d9391c2bcb52f4436b2ba6bd91"
        )
        digests = {}
        for argv in (["discriminate", "--state", "psi1", "--trials", "2000", "--eta", "0.9"],
                     ["teleport", "--trials", "2000"]):
            report = tmp_path / "report.json"
            assert run([*argv, "--seed", "3", "--out", str(report)]) == 0
            counts = json.dumps(json.loads(read(report))["counts"], sort_keys=True)
            digests[argv[0]] = hashlib.sha256(counts.encode()).hexdigest()
        assert digests == {
            "discriminate": "808a80eaa8a9738df9ba8511ceac7517e4aedd45bd75e28a1f6c4603a892ebd9",
            "teleport": "7cd0af5b812532e85a4197cde8f6cd8fa951ec6be5ac864fbd7d504f47353268",
        }

    def test_keyrate_tables(self, capsys):
        # the README table, the eta column and the thresholds
        digests = {}
        for argv in (["keyrate", "--d", "2,3,4,5", "--q-max", "0.12", "--q-step", "0.002"],
                     ["keyrate", "--d", "3,7", "--eta", "0.9"],
                     ["keyrate", "thresholds", "--d-max", "30"]):
            assert run(argv) == 0
            digests[" ".join(argv[1:])] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digests == {
            "--d 2,3,4,5 --q-max 0.12 --q-step 0.002": "5a6c0a0d6be579ce8c054937e531ef6763b2daa07094cbbc9e7e2d728cd6b0fb",
            "--d 3,7 --eta 0.9": "17226be9686534259320e38d441cc73c7ab48dd2a06d95e7b9455736a27d2ca6",
            "thresholds --d-max 30": "bf852b95735fa98e77de6741541911a776bae804033206977b59cf3c95250d56",
        }

    def test_list_states(self, tmp_path, capsys):
        # (stdout, --dump-state) per dimension
        digests = {}
        for d in range(2, 7):
            dump = tmp_path / f"states{d}.json"
            assert run(["list-states", "--d", str(d), "--dump-state", str(dump)]) == 0
            out = capsys.readouterr().out.encode()
            digests[d] = (hashlib.sha256(out).hexdigest()[:16], hashlib.sha256(dump.read_bytes()).hexdigest()[:16])
        assert digests == {
            2: ("7f6aa0516499b810", "a752d536618b6dc0"),
            3: ("844789dadc043e3b", "31c146457f39fbf1"),
            4: ("50e062780342b4d8", "b970042194bc86b1"),
            5: ("d4edfe43295e2112", "dd348ecd1b87aab8"),
            6: ("8b69fe71ff4a4e9b", "2680ab49d72c2cbb"),
        }

    def test_teleport_reports(self, tmp_path, monkeypatch):
        # whole reports, so that the last digit of the mean fidelity is pinned too
        for _ in on_both_uniform_sources(monkeypatch):
            digests = {}
            for seed in (3, 7):
                report = tmp_path / f"teleport{seed}.json"
                assert run(["teleport", "--trials", "2000", "--seed", str(seed), "--out", str(report)]) == 0
                digests[seed] = hashlib.sha256(report.read_bytes()).hexdigest()
            assert digests == {
                3: "e6bd54a8bc7baf891e4e09ee4f54eedef543a69a80761307bcd58f38480c2167",
                7: "43f31450b8b43eda88ce52d273baaa8bf140f86c0c5858d65f0d4a92629d5a82",
            }

    def test_describe_tritter(self, capsys):
        digests = {}
        for d in (2, 3, 16, 64):
            assert run(["describe-tritter", "--d", str(d)]) == 0
            digests[d] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digests == {
            2: "e3f16169d541f43dfa380c34f88388f463c31733e501776cd6752289fecfef46",
            3: "946729f1d7d7cc5ab70b6b57ac0d81ee930431a84b7ee1c6ab5bdc26312e19bc",
            16: "f5722ba8a0bbdf1f5e2290908717f2f272f2df3a2ed3703e64080377fa075f9a",
            64: "a905c3f29e4db9faaa3ac4f3cbe90b667712300252dd8b38d7ce8eb9f271ff59",
        }

    def test_mdiqkd_noise_edges(self, tmp_path, capsys, monkeypatch):
        for _ in on_both_uniform_sources(monkeypatch):
            self.check_mdiqkd_noise_edges(tmp_path, capsys)

    @staticmethod
    def check_mdiqkd_noise_edges(tmp_path, capsys):
        # high noise with the summary on stdout, and the noise-free defaults
        # with the CSV on stdout and the summary on stderr
        def sha(text):
            return hashlib.sha256(text if isinstance(text, bytes) else text.encode()).hexdigest()

        csv = tmp_path / "records.csv"
        assert run(["mdiqkd", "--trials", "3000", "--eta", "0.7", "--noise", "0.3", "--seed", "1",
                    "--out", str(csv)]) == 0
        summary = capsys.readouterr().out
        assert sha(csv.read_bytes()) == "9c3891a8f8e30acced72b50bf2238ccf9c1500da221cc85262a743cd5054af8a"
        assert sha(summary) == "d49401603adcb9b75d31bd5c4a2f1c25fd987f70fcb5a767f04b6b5e2dbb2961"
        assert run(["mdiqkd", "--trials", "1000", "--seed", "2"]) == 0
        captured = capsys.readouterr()
        assert sha(captured.out) == "2681d540a99d88326b398b51d35f5aa880c8565b65c245b2b9afe6f7a47ac036"
        assert sha(captured.err) == "5615a6010399c2313155685fa4c5acc5d5fd5c5290977cecccc1c0289231a4d4"


class TestCapContracts:
    """Capped commands run at their caps in a fresh process, stdout to
    /dev/null: each exits 0, within a wall-time bound that only catches a
    hang, and under a bound on its peak memory, the child's own VmHWM read at
    exit (a parent's wait4 cannot report less than the parent's own RSS)."""

    @staticmethod
    def capped_run(argv):
        """The exit code and the peak memory in MB of `cli.run(argv)` in a fresh interpreter."""
        code = (
            "import os, re, sys\n"
            "import esdsim.cli as cli\n"
            "sys.stdout = open(os.devnull, 'w')\n"
            f"code = cli.run({argv!r})\n"
            "with open('/proc/self/status') as status:\n"
            "    peak = re.search(r'VmHWM:\\s*(\\d+) kB', status.read())[1]\n"
            "print(code, peak, file=sys.__stdout__)"
        )
        done = subprocess.run([sys.executable, "-c", code], env=child_env(), capture_output=True, text=True, check=True,
                              timeout=60)
        exit_code, peak_kb = map(int, done.stdout.split())
        return exit_code, peak_kb / 1024

    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="VmHWM is read from /proc/self/status")
    def test_discriminate(self):
        # measured 47 MB and 0.18 s with interpreter start (medians of 11,
        # Python 3.11, numpy 2.4, BENCH_29.json `caps`): the memory bound
        # leaves a third of headroom for other builds, and the 60 s timeout
        # only catches a hang
        assert cli.MAX_DISCRIMINATE_D == 6 and cli.MAX_TRIALS == 10**6
        exit_code, peak_mb = self.capped_run(["discriminate", "--d", "6", "--state", "phi1", "--trials", "1000000",
                                              "--eta", "0.9"])
        assert exit_code == 0
        assert peak_mb <= 64

    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="VmHWM is read from /proc/self/status")
    def test_teleport(self):
        # measured 30.4 MB and 0.19 s with interpreter start, the same as at
        # 10^3 trials (medians of 11, Python 3.11, numpy 2.4, BENCH_31.json
        # `caps`): the counts are one draw, so nothing grows with --trials.
        # The memory bound leaves a third of headroom for other builds and
        # fails the 49 MB that per-trial sampling took; the 60 s timeout
        # only catches a hang
        assert cli.MAX_TRIALS == 10**6
        exit_code, peak_mb = self.capped_run(["teleport", "--trials", "1000000"])
        assert exit_code == 0
        assert peak_mb <= 40


class TestRunMemory:
    def test_mdiqkd_columns_and_csv_stay_small(self):
        # int8 columns (bool for `sifted`) take 7 B per trial; at 2 * 10^5
        # trials one chunk of sampling brings the run to about 22 B per
        # trial.  Draining the CSV keeps the columns and keys and formats
        # one block of TEXT_ROWS lines at a time, about 8 B per trial in
        # all; blocks of 2^14 lines took about 25 B, keys over the whole
        # run about 43 B, and int64 columns with them about 92 B
        n = 2 * 10**5
        protocols.mdi_qkd_run(10, noise=0.1)  # builds the cached outcome array
        tracemalloc.start()
        try:
            result = protocols.mdi_qkd_run(n, eta=0.9, noise=0.1, seed=3)
            run_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            for _ in cli._qkd_csv_rows(result):
                pass
            drain_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert run_peak <= 32 * n
        assert drain_peak <= 12 * n
        assert {column.dtype for column in (result.bases, result.values, result.outcomes, result.bob_symbols)} == {
            np.dtype(np.int8)
        }

    def test_keyrate_rows_stream(self, tmp_path):
        # the Q grid is generated lazily and rows are formatted TEXT_ROWS at
        # a time, so one block of lines is the working memory: about 9 B per
        # row at 5 * 10^4 rows.  Blocks of 2^14 lines took about 68 B per
        # row, the grid as a list of floats added 32 B per row, and a row
        # object per row with the table joined into one string took about
        # 400 B per row
        n = 5 * 10**4
        out = tmp_path / "rates.csv"
        tracemalloc.start()
        try:
            assert run(["keyrate", "--d", "3", "--q-max", "0.49999", "--q-step", "1e-5", "--out", str(out)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert read(out).count("\n") == 1 + n
        assert peak <= 24 * n

    def test_thresholds_rows_stream(self, tmp_path):
        # one block of TEXT_ROWS lines, about 0.1 MB, is the working memory:
        # about 1.4 B per row at 10^5 rows, against about 22 B for blocks of
        # 2^14 lines and about 130 B for the whole table as a list of lines
        # and one string
        n = 10**5
        out = tmp_path / "thresholds.csv"
        tracemalloc.start()
        try:
            assert run(["keyrate", "thresholds", "--d-max", str(n + 1), "--out", str(out)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert read(out).count("\n") == 1 + n
        assert peak <= 6 * n

    def test_outcome_codes_are_int8(self):
        m = discrimination.measure(states.psi_amplitudes(1)[None], 3)
        table = discrimination.outcome_table(m, 0.9)
        codes = sampling.draw_codes(table, 0, sampling.derive_rng(1).random(50))
        assert discrimination.click_codes(3).dtype == codes.dtype == np.int8


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

    @pytest.mark.parametrize("q_max", ["1.0", "1.5"])
    def test_q_grid_outside_rate_domain(self, q_max, tmp_path, monkeypatch, capsys):
        # rows are written while they are evaluated, so a grid that reaches
        # Q >= 1, outside the domain of r_d, exits 2 before anything is written
        def forbidden(*args, **kwargs):
            raise AssertionError("no row may be evaluated for a grid outside [0, 1)")

        monkeypatch.setattr(cli.kr, "keyrate_table", forbidden)
        out = tmp_path / "rates.csv"
        for argv in ([], ["--out", str(out)]):
            assert run(["keyrate", "--d", "3", "--q-max", q_max, "--q-step", "0.5", *argv]) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.startswith("error: the Q grid reaches ")
        assert not out.exists()

    def test_discriminate_dimension_limit(self, monkeypatch, capsys):
        def forbidden(*args):
            raise AssertionError("nothing may be built past the dimension limit")

        monkeypatch.setattr(cli, "_named_state", forbidden)
        monkeypatch.setattr(discrimination, "measure", forbidden)
        assert run(["discriminate", "--d", str(cli.MAX_DISCRIMINATE_D + 1), "--state", "phi1"]) == 2
        assert f"limit of {cli.MAX_DISCRIMINATE_D}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["list-states", "describe-tritter"])
    def test_dimension_limit(self, command, monkeypatch, capsys):
        def forbidden(*args):
            raise AssertionError("nothing may be built past the dimension limit")

        for module, name in ((states, "psi_amplitudes"), (states, "phi_amplitudes"), (optics, "decompose_dft")):
            monkeypatch.setattr(module, name, forbidden)
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

        for module, name in ((cli, "_named_state"), (protocols, "teleport_run"), (protocols, "mdi_qkd_run")):
            monkeypatch.setattr(module, name, forbidden)
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

        for module, name in ((discrimination, "measure"), (protocols, "teleport_run"), (protocols, "mdi_qkd_run")):
            monkeypatch.setattr(module, name, forbidden)
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


def readme_layout_modules():
    """The modules the README's layout table names, without the package prefix."""
    section = read(README).split("\n## Layout\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^\| `esdsim\.(\w+)` \|", section, re.MULTILINE)


class TestReadmeLayout:
    def test_names_every_module(self):
        modules = {path.stem for path in Path(esdsim.__file__).parent.glob("*.py")} - {"__init__"}
        assert sorted(readme_layout_modules()) == sorted(modules)


class TestSharedParser:
    def readme_outputs(self, directory, capsys, fresh_parser):
        """Every README command's streams and files, each run after the
        runs before it or after the full parser's cache is cleared."""
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
        # the full parser is built once, for the help and the unknown command,
        # and no README command asks for it: each is parsed from COMMANDS
        info = cli._build_parser.cache_info()
        assert (info.hits, info.misses) == (2, 1)
        assert shared == self.readme_outputs(tmp_path / "fresh", capsys, fresh_parser=True)

    def test_built_once(self, capsys):
        cli._build_parser.cache_clear()
        assert run(["keyrate", "thresholds", "--d-max", "3"]) == 0
        assert run(["keyrate", "--d", "3", "--q-max", "0.01", "--q-step", "0.01"]) == 0
        assert cli._build_parser.cache_info().misses == 0
        # the full parser reports what names no subcommand, and arguments left over
        assert run(["no-such-command"]) == 2
        assert run([]) == 2
        assert run(["keyrate", "table", "extra"]) == 2
        assert capsys.readouterr().err.splitlines()[-1] == "esdsim: error: unrecognized arguments: extra"
        assert cli._build_parser.cache_info().misses == 1

    @pytest.mark.parametrize("name", sorted(cli.COMMANDS))
    def test_command_parser_is_the_full_parsers_subparser(self, name):
        # a command's direct parse gives its subparser's namespace on the
        # bare argv and with every long flag set, the positional's choices too
        subparsers = next(a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        full = subparsers.choices[name]
        assert full.prog == f"esdsim {name}"
        command, values = cli.COMMANDS[name], {int: "4", float: "0.25", str: "2,3"}
        flags = [token for flag, kwargs, _ in command.options if flag.startswith("--")
                 for token in (flag, values[kwargs.get("type", str)])]
        choices = [choice for flag, kwargs, _ in command.options if not flag.startswith("-")
                   for choice in kwargs["choices"]]
        for tokens in ([], flags, *([choice, *flags] for choice in choices)):
            assert vars(cli._direct_parse(command, tokens)) == vars(full.parse_args(tokens)), tokens

    def test_import_builds_nothing(self):
        # the full parser is built only on a `run` that needs it, and the
        # commands that sample nothing never import numpy.random
        def run_code(code):
            done = subprocess.run([sys.executable, "-c", code], env=child_env(), capture_output=True, text=True,
                                  check=True)
            return done.stdout.split()[-2:]

        if run_code("import sys, numpy; print('numpy.random' in sys.modules, 0)")[0] == "True":
            pytest.skip("importing numpy alone loads numpy.random")
        assert run_code(
            "import sys, esdsim.cli as cli\n"
            "assert cli._build_parser.cache_info().misses == 0\n"
            "for argv in (['keyrate'], ['keyrate', 'thresholds'], ['list-states'], ['describe-tritter']):\n"
            "    assert cli.run(argv) == 0\n"
            "print('numpy.random' in sys.modules, cli._build_parser.cache_info().misses)"
        ) == ["False", "0"]


# Values that convert by their option's type, and some that do not.
_TYPED_VALUES = {
    int: st.sampled_from(["0", "3", "7", "10", " 4", "+2", "1_0", "\u0663", "x", "1e3"]),
    float: st.sampled_from(["0", "0.01", "0.5", " 0.2", "1e-3", "nan", "inf", "1_0.5", "x"]),
    str: st.sampled_from(["3", "2,3", " 4", "psi1", "out", "", "x y", "a=b", "table"]),
}
_ALL_FLAGS = sorted({flag for command in cli.COMMANDS.values() for flag, _, _ in command.options})
# Tokens of every other form: every command's flags, --flag=value, --,
# help, negative numbers, '-', '', and the keyrate modes in any position.
_OTHER_TOKENS = st.sampled_from(_ALL_FLAGS + ["--", "-h", "--help", "-", "", "-1", "-0.5", "-inf", "-x", "table",
                                              "thresholds", "bogus", "mode", "3"])


def _argv_tokens(data, name):
    """Well-formed tokens of one command, then up to two tokens of any form
    at any place: an abbreviation, a --flag=value or one of _OTHER_TOKENS."""
    options = [(flag, kwargs) for flag, kwargs, _ in cli.COMMANDS[name].options if flag.startswith("--")]
    modes = [[], ["table"], ["thresholds"], ["bogus"]] if name == "keyrate" else [[]]
    tokens = data.draw(st.sampled_from(modes), label="mode")
    for flag, kwargs in data.draw(st.lists(st.sampled_from(options), max_size=5), label="flags"):
        tokens += [flag, data.draw(_TYPED_VALUES[kwargs.get("type", str)])]
    flags = st.sampled_from([flag for flag, _ in options])
    other = (_OTHER_TOKENS | st.builds(lambda flag, n: flag[:n], flags, st.integers(2, 6))
             | st.builds("{}={}".format, flags, _TYPED_VALUES[str]))
    for token in data.draw(st.lists(other, max_size=2), label="others"):
        tokens.insert(data.draw(st.integers(0, len(tokens))), token)
    return tokens


class TestDirectParse:
    """The direct parse accepts only argvs on which argparse agrees."""

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_agrees_with_argparse(self, data):
        name = data.draw(st.sampled_from(sorted(cli.COMMANDS)), label="command")
        tokens = _argv_tokens(data, name)
        direct = cli._direct_parse(cli.COMMANDS[name], tokens)
        if direct is None:
            return
        with contextlib.redirect_stderr(io.StringIO()) as stderr:
            try:
                full = vars(cli._build_parser().parse_args([name, *tokens]))
            except SystemExit:
                pytest.fail(f"argparse rejects {tokens!r}: {stderr.getvalue()}")
        assert full.pop("command") == name
        # by repr, since --eta nan is accepted and nan != nan
        assert repr(sorted(vars(direct).items())) == repr(sorted(full.items()))

    @pytest.mark.parametrize("argv", [
        ["teleport", "-h"], ["teleport", "--help"], ["teleport", "--tri", "5"], ["teleport", "--trials=5"],
        ["teleport", "--", "--trials", "5"], ["teleport", "--trials", "5", "--"], ["teleport", "--trials", "-5"],
        ["mdiqkd", "--eta", "-0.5"], ["teleport", "--out", "-"], ["teleport", "--out", "-x"],
        ["teleport", "--trials", "x"], ["teleport", "--trials", "1e3"], ["teleport", "--trials"],
        ["teleport", "--trials", "5", "--seed"], ["teleport", "5"], ["teleport", "--d", "3"],
        ["keyrate", "--d", "3", "thresholds"], ["keyrate", "thresholds", "table"], ["keyrate", "bogus"],
        ["keyrate", "mode", "table"], ["keyrate", "table", "extra"], ["keyrate", ""], ["keyrate", "-"],
        ["list-states", "--d", ""], ["list-states", "-d", "3"],
    ])
    def test_other_forms_go_to_argparse(self, argv):
        assert cli._direct_parse(cli.COMMANDS[argv[0]], argv[1:]) is None


class TestMain:
    @pytest.mark.parametrize("argv, code", [(["keyrate", "thresholds", "--d-max", "3"], 0), (["no-such-command"], 2)])
    def test_exit_code_of_sys_argv(self, argv, code, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv", ["esdsim", *argv])
        with pytest.raises(SystemExit) as info:
            cli.main()
        assert info.value.code == code
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(",")[0] for line in lines] == (["d", "2", "3"] if code == 0 else [])


class TestRuntimePaths:
    def test_no_sparse_measurement(self, tmp_path):
        # every subcommand, run in a fresh interpreter with every cache cold,
        # loads the package and the modules of the README layout table and no
        # other esdsim module: the sparse algebra lives with the tests only
        argvs = [["discriminate", "--d", str(d), "--state", "phi1", "--trials", "100"] for d in range(2, 7)]
        argvs += [["discriminate", "--state", "psi0", "--trials", "100"], ["teleport", "--trials", "100"],
                  ["mdiqkd", "--trials", "100", "--noise", "0.1", "--out", str(tmp_path / "records.csv")]]
        argvs += [["list-states", "--d", str(d), "--dump-state", str(tmp_path / "states.json")] for d in range(2, 7)]
        argvs += [["keyrate"], ["keyrate", "thresholds"], ["describe-tritter"]]
        code = (
            "import os, sys\n"
            "from esdsim import cli, protocols\n"
            "sys.stdout = sys.stderr = open(os.devnull, 'w')\n"
            f"for argv in {argvs!r}:\n"
            "    assert cli.run(argv) == 0, argv\n"
            "for d in range(2, 6):\n"
            "    assert abs(protocols.generalized_conclusive_probability(d) - 1 / d) < 1e-12\n"
            "print(*sorted(name for name in sys.modules if name.split('.')[0] == 'esdsim'), file=sys.__stdout__)\n"
            "print('dataclasses' in sys.modules, file=sys.__stdout__)"
        )
        done = subprocess.run([sys.executable, "-c", code], env=child_env(), capture_output=True, text=True, check=True,
                              timeout=120)
        modules, dataclasses_loaded = done.stdout.splitlines()
        assert modules.split() == sorted(["esdsim"] + [f"esdsim.{name}" for name in readme_layout_modules()])
        assert dataclasses_loaded == "False"  # src/ defines its values as NamedTuples and arrays

    @staticmethod
    def fresh_run(*argvs):
        """The esdsim modules that `cli.run` of each argv loads in a fresh
        interpreter, and whether the runs load numpy, numpy.random and any
        of argparse, gettext and locale; no argv stands for a bare
        `import esdsim.cli`."""
        code = (
            "import os, sys\n"
            "import esdsim.cli as cli\n"
            "sys.stdout = sys.stderr = open(os.devnull, 'w')\n"
            f"for argv in {list(argvs)!r}:\n"
            "    assert cli.run(argv) == 0, argv\n"
            "print(*sorted(name for name in sys.modules if name.split('.')[0] == 'esdsim'), file=sys.__stdout__)\n"
            "print('numpy' in sys.modules, 'numpy.random' in sys.modules,"
            " not sys.modules.keys().isdisjoint({'argparse', 'gettext', 'locale'}), file=sys.__stdout__)"
        )
        done = subprocess.run([sys.executable, "-c", code], env=child_env(), capture_output=True, text=True, check=True,
                              timeout=120)
        modules, flags = done.stdout.splitlines()
        return modules.split(), *(flag == "True" for flag in flags.split())

    # A fresh interpreter per subcommand: the esdsim modules it loads, and
    # whether it loads numpy.  Only the sampling commands load `sampling`.
    # None of these runs loads numpy.random: discriminate draws d + 1 = 4
    # uniforms and teleport 4 with `philox_head`, and every mdiqkd run is
    # its process's first and draws less than KERNEL_BUDGET uniforms, which
    # the kernel computes (2000 trials 4000 and 5000, perfbench's qkd-mc
    # size, 10000).  Each argv is well formed, so none
    # loads argparse.
    @pytest.mark.parametrize("argv, layers, numpy_loaded", [
        (None, [], False),
        (["keyrate"], [], False),
        (["keyrate", "thresholds"], [], False),
        (["describe-tritter"], ["optics", "states"], True),
        (["list-states"], ["discrimination", "optics", "states"], True),
        (["discriminate", "--trials", "1000"], ["discrimination", "optics", "sampling", "states"], True),
        (["teleport", "--trials", "500"], ["discrimination", "optics", "protocols", "sampling", "states"], True),
        (["mdiqkd", "--trials", "2000"], ["discrimination", "optics", "protocols", "sampling", "states"], True),
        (["mdiqkd", "--trials", "5000"], ["discrimination", "optics", "protocols", "sampling", "states"], True),
    ])
    def test_loads_only_its_layers(self, argv, layers, numpy_loaded):
        assert 5000 * 2 <= sampling.KERNEL_BUDGET
        core = ["esdsim", "esdsim.cli", "esdsim.errors", "esdsim.keyrate"]
        argvs, modules = [] if argv is None else [argv], sorted(core + [f"esdsim.{name}" for name in layers])
        assert self.fresh_run(*argvs) == (modules, numpy_loaded, False, False)

    def test_discriminate_draws_outside_the_kernel(self):
        # discriminate's d + 1 uniforms and teleport's 4 come from
        # `philox_head` whatever --trials is: 10^6 trials make no
        # `uniform_chunks` run and load no numpy.random, each command in a
        # fresh process
        for argv in (["discriminate", "--d", "6", "--state", "phi1", "--trials", "1000000"],
                     ["teleport", "--trials", "1000000"]):
            code = (
                "import os, sys\n"
                "import esdsim.cli as cli, esdsim.sampling as sampling\n"
                "sys.stdout = open(os.devnull, 'w')\n"
                f"assert cli.run({argv!r}) == 0\n"
                "print(sampling._first_run, 'numpy.random' in sys.modules, file=sys.__stdout__)"
            )
            done = subprocess.run([sys.executable, "-c", code], env=child_env(), capture_output=True, text=True,
                                  check=True, timeout=120)
            assert done.stdout.split() == ["True", "False"], argv

    def test_measurement_loads_no_sampling(self):
        # the dependency runs one way: `sampling` reads the outcome codes of
        # `discrimination`, which imports nothing of it
        code = "import sys, esdsim.discrimination; print('esdsim.sampling' in sys.modules)"
        done = subprocess.run([sys.executable, "-c", code], env=child_env(), capture_output=True, text=True, check=True,
                              timeout=120)
        assert done.stdout.split() == ["False"]

    def test_loads_numpy_random_above_the_kernel_limit(self):
        # 200000 mdiqkd trials draw 400000 uniforms, past KERNEL_BUDGET; the
        # README's 30000 draw 60000, which the kernel computes
        assert 200000 * 2 > sampling.KERNEL_BUDGET >= 30000 * 2
        assert self.fresh_run(["mdiqkd", "--trials", "200000"])[2]

    def test_readme_commands_load_no_argparse(self, tmp_path):
        # each README command is parsed straight from COMMANDS; an
        # abbreviation is argparse's to accept, and still runs
        assert not self.fresh_run(*readme_commands(tmp_path))[3]
        assert self.fresh_run(["teleport", "--tri", "5", "--out", str(tmp_path / "teleport.json")])[3]
