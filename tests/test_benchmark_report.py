"""Unit tests for the text reporting helpers."""

from repro.benchmark.report import format_table


class TestFormatTable:
    def test_basic_layout(self):
        text = format_table(
            "Title",
            ["A", "B"],
            [("row1", [1.0, 2.5]), ("row2", [3.0, 4.0])],
        )
        lines = text.splitlines()
        assert lines[0] == "Title"
        assert "A" in lines[2] and "B" in lines[2]
        assert "row1" in text and "2.5" in text

    def test_string_values_pass_through(self):
        text = format_table("T", ["X"], [("r", ["1.0/2"])])
        assert "1.0/2" in text

    def test_row_alignment(self):
        text = format_table("T", ["X"], [("short", [1.0]), ("much-longer-label", [2.0])])
        data_lines = [l for l in text.splitlines() if "|" in l and "X" not in l]
        pipes = [line.index("|") for line in data_lines]
        assert len(set(pipes)) == 1  # all rows align

