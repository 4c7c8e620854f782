"""Tests for the ``python -m repro`` command-line interface."""

import argparse
import json
import re

import pytest

import repro.__main__ as cli
from repro.__main__ import main
from repro.bench.adapters import make_store


class TestCli:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "ICDE 2024" in out
        assert "vmcache" in out

    def test_survey(self, capsys):
        assert main(["survey"]) == 0
        out = capsys.readouterr().out
        assert "copies/byte" in out
        assert "our" in out and "mysql" in out

    def test_demo_small(self, capsys):
        assert main(["demo", "--payload-kb", "4", "--ops", "20",
                     "--records", "4"]) == 0
        out = capsys.readouterr().out
        assert "txn/s" in out
        assert "our" in out

    def test_faultsweep(self, capsys):
        assert main(["faultsweep", "--schedules", "10", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "0 SILENT" in out
        assert "digest:" in out

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_docstring_names_exactly_the_registered_commands(self):
        documented = set(re.findall(r"^\* ``([a-z-]+)``", cli.__doc__,
                                    re.MULTILINE))
        sub = next(action for action in cli.build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction))
        assert documented == set(sub.choices)


class TestJsonOutput:
    def test_demo_json(self, capsys):
        assert main(["demo", "--json", "--payload-kb", "4", "--ops", "20",
                     "--records", "4"]) == 0
        doc = json.loads(capsys.readouterr().out)
        systems = {row["system"] for row in doc["systems"]}
        assert "our" in systems
        for row in doc["systems"]:
            assert row["throughput_ops_s"] > 0

    def test_survey_json(self, capsys):
        assert main(["survey", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["copies_per_byte"]["our"] <= \
            doc["copies_per_byte"]["postgresql"]
        # The JSON carries the measured ratio, not the 2-digit table cell.
        payload = doc["payload_bytes"]
        store = make_store("our", capacity_bytes=1 << 30)
        before = store.device.stats.snapshot()
        store.put(b"probe", b"\x6b" * payload)
        store.db.checkpoint()
        written = store.device.stats.delta_since(before) \
            .bytes_written_by_category
        measured = sum(written.get(c, 0) for c in ("data", "wal")) / payload
        assert doc["copies_per_byte"]["our"] == round(measured, 4)

    def test_faultsweep_json(self, capsys):
        assert main(["faultsweep", "--schedules", "5", "--seed", "3",
                     "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["silent"] == 0
        assert doc["n_schedules"] == 5
        assert len(doc["digest"]) == 64


class TestTraceCommand:
    def test_stdout_trace_is_valid_chrome_json(self, capsys):
        assert main(["trace", "ycsb", "--seed", "1", "--ops", "30"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["otherData"]["clock"] == "virtual-ns"
        assert any(e["ph"] == "X" for e in doc["traceEvents"])

    def test_trace_byte_identical_across_runs(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["trace", "ycsb", "--seed", "0", "--ops", "40",
                     "--out", str(a)]) == 0
        assert main(["trace", "ycsb", "--seed", "0", "--ops", "40",
                     "--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_trace_seed_changes_trace(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["trace", "ycsb", "--seed", "0", "--ops", "40",
                     "--out", str(a)]) == 0
        assert main(["trace", "ycsb", "--seed", "7", "--ops", "40",
                     "--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() != b.read_bytes()

    def test_flamegraph_and_summary(self, tmp_path, capsys):
        out = tmp_path / "t.json"
        flame = tmp_path / "t.folded"
        assert main(["trace", "wikipedia", "--ops", "20",
                     "--out", str(out), "--flamegraph", str(flame),
                     "--summary"]) == 0
        err = capsys.readouterr().err
        assert "span" in err  # summary table went to stderr
        lines = flame.read_text().splitlines()
        assert lines and all(" " in line for line in lines)

