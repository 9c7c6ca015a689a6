"""Tests for the benchmark report assembler."""

from pathlib import Path

from repro.analytics.report import SECTION_ORDER, assemble_report, main

BENCH_OUT = Path(__file__).resolve().parents[2] / "benchmarks" / "out"


def seed_out(tmp_path: Path, names):
    for name in names:
        (tmp_path / f"{name}.txt").write_text(f"table for {name}\nrow 1")
    return tmp_path


class TestAssemble:
    def test_orders_sections_and_includes_content(self, tmp_path):
        seed_out(tmp_path, ["fig4", "fig3", "table1"])
        report = assemble_report(tmp_path)
        i3 = report.index("Figure 3")
        i4 = report.index("Figure 4")
        it = report.index("Table I")
        assert it < i3 < i4
        assert "table for fig3" in report

    def test_missing_tables_listed(self, tmp_path):
        seed_out(tmp_path, ["fig3"])
        report = assemble_report(tmp_path)
        assert "Missing tables" in report
        assert "`fig7` (bench not run)" in report

    def test_unlisted_extras_appended(self, tmp_path):
        seed_out(tmp_path, ["fig3", "my_new_bench"])
        report = assemble_report(tmp_path)
        assert "my_new_bench (unlisted)" in report

    def test_full_set_has_no_missing_section(self, tmp_path):
        seed_out(tmp_path, [name for name, _ in SECTION_ORDER])
        report = assemble_report(tmp_path)
        assert "Missing tables" not in report


class TestCommittedTables:
    def test_every_bench_table_has_a_title(self):
        """A table a bench writes to ``benchmarks/out`` is titled in
        ``SECTION_ORDER``, so the report never files it as unlisted."""
        stems = {p.stem for p in BENCH_OUT.glob("*.txt")}
        assert stems, BENCH_OUT
        assert stems - {name for name, _ in SECTION_ORDER} == set()


class TestCli:
    def test_writes_file(self, tmp_path, capsys):
        seed_out(tmp_path, ["fig3"])
        out = tmp_path / "report.md"
        assert main([str(tmp_path), str(out)]) == 0
        assert "Figure 3" in out.read_text()

    def test_prints_to_stdout(self, tmp_path, capsys):
        seed_out(tmp_path, ["fig3"])
        assert main([str(tmp_path)]) == 0
        assert "Figure 3" in capsys.readouterr().out

    def test_usage_error(self, capsys):
        assert main([]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage: python -m repro.analytics.report")
