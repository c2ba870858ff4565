"""Tests for result export (each result's ``to_jsonable()``) and the
extended CLI."""

import json

from repro.experiments.fig4 import run_fig4
from repro.experiments.fig6 import run_fig6
from repro.experiments.runner import main
from repro.experiments.table3 import run_table3

SIZE = 200


class TestToDict:
    def test_table3(self):
        result = run_table3(table_size=SIZE)
        data = result.to_jsonable()
        assert data["experiment"] == "table3"
        assert data["table_size"] == SIZE
        assert set(data["measured"]) == {"pentium3", "xeon", "ixp2400", "cisco"}
        assert set(data["measured"]["xeon"]) == {str(s) for s in range(1, 9)}
        assert data["paper"]["pentium3"]["1"] == 185.2
        json.dumps(data)  # must be JSON-serialisable

    def test_fig4(self):
        data = run_fig4(table_size=SIZE).to_jsonable()
        assert data["experiment"] == "fig4"
        assert set(data["tps"]) == {"1", "2"}
        json.dumps(data)

    def test_fig6(self):
        data = run_fig6(table_size=400).to_jsonable()
        assert data["experiment"] == "fig6"
        assert "forwarding" in data
        assert 0.0 <= data["interrupt_share"] <= 1.0
        json.dumps(data)


class TestSaveJson:
    def test_writes_file_and_creates_directories(self, tmp_path):
        # --output-dir writes exactly the result's to_jsonable(), creating
        # missing directories on the way.
        directory = tmp_path / "nested" / "out"
        main(["fig4", "--table-size", str(SIZE), "--output-dir", str(directory)])
        text = (directory / "fig4.json").read_text()
        expected = run_fig4(table_size=SIZE).to_jsonable()
        assert text == json.dumps(expected, indent=2, sort_keys=True)


class TestCli:
    def test_output_dir_writes_json(self, tmp_path, capsys):
        rc = main(["fig4", "--table-size", str(SIZE),
                   "--output-dir", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "fig4.json").exists()
        assert "[written" in capsys.readouterr().out

    def test_repeatability_command(self, capsys):
        rc = main([
            "repeatability", "--platform", "cisco", "--scenario", "2",
            "--seeds", "1", "2", "--table-size", "500",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "repeatable" in out
        assert "CV" in out

    def test_stability_command(self, capsys):
        rc = main([
            "stability", "--platform", "xeon", "--rate", "100",
            "--duration", "10", "--table-size", "200",
        ])
        assert rc == 0
        assert "session holds" in capsys.readouterr().out

    def test_stability_flap_detected(self, capsys):
        rc = main([
            "stability", "--platform", "pentium3", "--rate", "1500",
            "--duration", "25", "--table-size", "400",
        ])
        assert rc == 0
        assert "SESSION FLAPS" in capsys.readouterr().out


class TestChainCli:
    def test_chain_command(self, capsys):
        rc = main([
            "chain", "--platforms", "xeon", "pentium3",
            "--table-size", "100",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "end-to-end convergence" in out
        assert "xeon" in out and "pentium3" in out

    def test_chain_requires_platforms(self):
        import pytest as _pytest
        from repro.experiments.runner import build_parser
        with _pytest.raises(SystemExit):
            build_parser().parse_args(["chain"])


class TestRemainingConverters:
    def test_fig3(self):
        from repro.experiments.fig3 import run_fig3

        data = run_fig3(table_size=SIZE).to_jsonable()
        assert data["experiment"] == "fig3"
        assert set(data["series"]) == {"pentium3", "xeon", "ixp2400"}
        assert data["phases"]["pentium3"][0]["phase"] == 1
        json.dumps(data)

    def test_fig5(self):
        from repro.experiments.fig5 import run_fig5

        result = run_fig5(table_size=SIZE, points=2, scenarios=(1,),
                          platforms=("pentium3",))
        data = result.to_jsonable()
        assert data["experiment"] == "fig5"
        curve = data["series"]["1"]["pentium3"]
        assert len(curve) == 2 and curve[0][0] == 0.0
        json.dumps(data)
