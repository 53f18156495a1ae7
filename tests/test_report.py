"""Tests for the markdown report generator."""

import json
from pathlib import Path

from repro.bench.report import (SECTIONS, collect, main, render,
                                write_snapshot)


def _fake_results(tmp_path: Path, keys):
    for key in keys:
        (tmp_path / f"{key}.txt").write_text(f"col\n---\n{key}-row\n")
    return tmp_path


class TestReport:
    def test_render_includes_present_tables(self, tmp_path):
        _fake_results(tmp_path, ["fig9_breakdown", "table2_workloads"])
        report = render(tmp_path)
        assert "fig9_breakdown-row" in report
        assert "table2_workloads-row" in report
        assert "Fig 9" in report

    def test_missing_tables_are_noted_not_fatal(self, tmp_path):
        _fake_results(tmp_path, ["fig9_breakdown"])
        report = render(tmp_path)
        assert "Missing" in report
        assert "not yet generated" in report

    def test_all_present_summary(self, tmp_path):
        _fake_results(tmp_path, [key for key, _t, _c in SECTIONS])
        report = render(tmp_path)
        assert f"All {len(SECTIONS)} tables present." in report

    def test_collect_reads_only_known_keys(self, tmp_path):
        _fake_results(tmp_path, ["fig9_breakdown"])
        (tmp_path / "unrelated.txt").write_text("junk")
        tables = collect(tmp_path)
        assert set(tables) == {"fig9_breakdown"}

    def test_main_writes_output_file(self, tmp_path, capsys):
        _fake_results(tmp_path, ["fig9_breakdown"])
        out = tmp_path / "out.md"
        assert main([str(tmp_path), str(out)]) == 0
        assert out.exists()
        assert "Fig 9" in out.read_text()

    def test_main_prints_without_output_file(self, tmp_path, capsys):
        _fake_results(tmp_path, ["fig9_breakdown"])
        assert main([str(tmp_path)]) == 0
        assert "Fig 9" in capsys.readouterr().out

    def test_sections_cover_every_paper_artifact(self):
        titles = " ".join(title for _k, title, _c in SECTIONS)
        for artifact in ("Table 2", "Fig 4", "Fig 5", "Fig 6", "Fig 7",
                         "Fig 8", "Fig 9", "Supp Fig 1a", "Supp Fig 1b",
                         "Supp Fig 2"):
            assert artifact in titles

    def test_write_snapshot_writes_exactly_one_file(self, tmp_path):
        # One artifact per bench: BENCH_<name>.json, nowhere else (a
        # headline name used to be mirrored to the repo root as well).
        out = write_snapshot("goodput_loss", params={"p": 1},
                             metrics={"m": 2}, results_dir=tmp_path)
        assert list(tmp_path.iterdir()) == [out]
        assert out.name == "BENCH_goodput_loss.json"
        payload = json.loads(out.read_text())
        assert payload["params"] == {"p": 1}
        assert payload["metrics"] == {"m": 2}
        assert payload["derived"] == {}
