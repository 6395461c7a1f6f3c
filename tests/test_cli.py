"""Exit-code contract and reproducibility of the command-line surface."""

import json
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from taublab import search
from taublab.cli import build_parser, main


@pytest.fixture()
def set_file(tmp_path):
    path = tmp_path / "e.json"
    path.write_text(json.dumps({"dim": 1, "points": [[0], [1], [2]]}))
    return path


def run(argv, capsys):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


class TestEval:
    def test_prints_exact_value(self, set_file, capsys):
        code, out, _ = run(["eval", set_file, "--point", "4"], capsys)
        assert code == 0
        assert out.strip() == "3/5"

    def test_threshold_verdicts(self, set_file, capsys):
        code, out, _ = run(["eval", set_file, "--point", "4", "--alpha", "1/2"], capsys)
        assert code == 0
        assert out.split() == ["3/5", "EXCEEDS"]
        code, out, _ = run(["eval", set_file, "--point", "4", "--alpha", "3/5"], capsys)
        assert out.split() == ["3/5", "NOT"]

    def test_domain_error_exit_3(self, set_file, capsys):
        code, out, err = run(["eval", set_file, "--point", "4", "--alpha", "1"], capsys)
        assert code == 3
        assert out == ""

    def test_decimal_alpha_exit_2(self, set_file, capsys):
        code, _, err = run(["eval", set_file, "--point", "4", "--alpha", "0.5"], capsys)
        assert code == 2
        assert "fraction" in err

    def test_missing_file_exit_2(self, tmp_path, capsys):
        code, _, _ = run(["eval", tmp_path / "nope.json", "--point", "0"], capsys)
        assert code == 2

    def test_malformed_json_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        code, _, _ = run(["eval", bad, "--point", "0"], capsys)
        assert code == 2

    def test_dimension_mismatch_exit_3(self, set_file, capsys):
        code, _, _ = run(["eval", set_file, "--point", "0,0"], capsys)
        assert code == 3


class TestHalo:
    def test_csv_dump(self, tmp_path, capsys):
        set2 = tmp_path / "pair.json"
        set2.write_text(json.dumps({"dim": 1, "points": [[0], [1]]}))
        out_file = tmp_path / "halo.csv"
        code, out, _ = run(["halo", set2, "--alpha", "1/2", "--out", out_file], capsys)
        assert code == 0
        assert "ratio=2" in out
        lines = out_file.read_text().strip().split("\n")
        assert len(lines) == 1 + 4 + 1  # header, four members, summary
        assert Path(str(out_file) + ".manifest.json").exists()

    def test_planar_product_row_count(self, tmp_path, capsys):
        square = tmp_path / "square.json"
        square.write_text(json.dumps({"dim": 2, "points": [[0, 0], [0, 1], [1, 0], [1, 1]]}))
        out_file = tmp_path / "halo2.csv"
        code, out, _ = run(["halo", square, "--alpha", "1/4", "--out", out_file], capsys)
        assert code == 0
        # ratio 16 on 4 points: 64 member rows (cross-checked by enumeration)
        assert "members=64" in out
        lines = out_file.read_text().strip().split("\n")
        assert len(lines) == 1 + 64 + 1

    def test_wide_span_set(self, tmp_path, capsys):
        wide = tmp_path / "wide.json"
        wide.write_text(json.dumps({"dim": 1, "points": [[0], [10**9]]}))
        out_file = tmp_path / "wide.csv"
        code, out, _ = run(["halo", wide, "--alpha", "1/2", "--out", out_file], capsys)
        assert code == 0
        assert "ratio=1" in out
        lines = out_file.read_text().strip().split("\n")
        assert lines[1:3] == ["0", "1000000000"] and len(lines) == 1 + 2 + 1

    @pytest.mark.parametrize("points", [
        [[0, 0], [10**9, 0]],
        [[0, 0], [0, 10**9]],
        [[0, 0, 0], [0, 0, 10**9]],
        [[0, 0], [10**9, 0], [1, 1]],
        [[0, 0], [0, 10**9], [1, 1]],
    ])
    def test_wide_span_product(self, points, tmp_path, capsys):
        """Planar and spatial pairs 10^9 apart, and the planar pairs with
        (1, 1) added, which are not products: the halo is the set itself, in
        milliseconds and well under a megabyte."""
        wide = tmp_path / "wide.json"
        wide.write_text(json.dumps({"dim": len(points[0]), "points": points}))
        out_file = tmp_path / "wide.csv"
        tracemalloc.start()
        try:
            start = time.perf_counter()
            code, out, _ = run(["halo", wide, "--alpha", "1/2", "--out", out_file], capsys)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and "ratio=1" in out
        lines = out_file.read_text().strip().split("\n")
        assert lines[1:-1] == [",".join(map(str, p)) for p in sorted(points)]
        assert peak < 1 << 20
        assert elapsed < 0.5

    def test_oversized_halo_exit_3(self, tmp_path, capsys):
        """interval(60) at 1/10^7 has 1,199,999,938 halo members: refused
        from the count of its runs, in milliseconds, with nothing written."""
        block = tmp_path / "block.json"
        block.write_text(json.dumps({"dim": 1, "points": [[x] for x in range(60)]}))
        out_file = tmp_path / "big.csv"
        start = time.perf_counter()
        code, out, err = run(["halo", block, "--alpha", "1/10000000", "--out", out_file], capsys)
        assert time.perf_counter() - start < 0.5
        assert code == 3 and out == ""
        assert "1199999938" in err
        assert not out_file.exists()

    def test_non_integer_coordinates_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "floats.json"
        bad.write_text(json.dumps({"dim": 1, "points": [[0.5], [2.9], [True]]}))
        code, out, err = run(["halo", bad, "--alpha", "1/2"], capsys)
        assert code == 2
        assert out == ""
        assert "JSON integers" in err

    def test_unwritable_out_exit_2(self, set_file, tmp_path, capsys):
        out_file = tmp_path / "nodir" / "x.csv"
        code, _, err = run(["halo", set_file, "--alpha", "1/2", "--out", out_file], capsys)
        assert code == 2
        assert err.startswith("input error: cannot write") and err.count("\n") == 1
        assert not out_file.parent.exists()


class TestSweep:
    def test_writes_csv_and_manifest(self, tmp_path, capsys):
        out_file = tmp_path / "sweep.csv"
        argv = [
            "sweep", "--dim", "1", "--grid", "1/4,1/2,3/4",
            "--strategy", "interval-family", "--max-block", "12",
            "--window", "0:11", "--out", out_file,
        ]
        code, out, _ = run(argv, capsys)
        assert code == 0
        manifest = json.loads(Path(str(out_file) + ".manifest.json").read_text())
        assert manifest["command"] == "sweep"
        assert manifest["version"]
        assert manifest["config"]["grid"] == ["1/4", "1/2", "3/4"]

    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = [
            "sweep", "--grid", "1/4,1/2", "--strategy", "anneal", "--seed", "9",
            "--budget", "200", "--window", "0:9", "--out",
        ]
        assert run(argv + [out_a], capsys)[0] == 0
        assert run(argv + [out_b], capsys)[0] == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_bad_grid_exit_3(self, tmp_path, capsys):
        code, _, _ = run(
            ["sweep", "--grid", "1/2,1/4", "--out", tmp_path / "x.csv"], capsys
        )
        assert code == 3

    def test_anneal_without_blocks_exit_3(self, tmp_path, capsys):
        argv = ["sweep", "--grid", "1/2", "--strategy", "anneal", "--max-block", "0",
                "--out", tmp_path / "z.csv"]
        code, _, err = run(argv, capsys)
        assert code == 3
        assert err.startswith("domain error:")

    def test_oversized_box_family_exit_3(self, tmp_path, capsys, monkeypatch):
        """The 3-D box family at the default block bound 60 holds 1830^3
        points: refused from that count, in milliseconds, with nothing written."""
        monkeypatch.setattr(search, "LatticeSet", None)  # building a member would fail
        out_file = tmp_path / "boxes.csv"
        start = time.perf_counter()
        code, out, err = run(["sweep", "--grid", "1/2", "--dim", "3", "--strategy", "box-family",
                              "--out", out_file], capsys)
        assert time.perf_counter() - start < 0.5
        assert code == 3 and out == ""
        assert str(1830**3) in err
        assert not out_file.exists()

    def test_empty_grid_exit_3(self, tmp_path, capsys):
        code, _, _ = run(["sweep", "--grid", ",", "--out", tmp_path / "e.csv"], capsys)
        assert code == 3
        assert not (tmp_path / "e.csv").exists()

    def test_unwritable_out_exit_2(self, tmp_path, capsys):
        argv = ["sweep", "--grid", "1/2", "--max-block", "4", "--window", "0:3",
                "--out", tmp_path / "nodir" / "x.csv"]
        code, _, err = run(argv, capsys)
        assert code == 2
        assert err.startswith("input error: cannot write") and err.count("\n") == 1


class TestVerify:
    @pytest.mark.parametrize(
        "scenario",
        [["example1"], ["jump", "3"], ["index-collapse"], ["one-sided", "11", "60"],
         ["ceiling-1d", "5", "80"], ["transfer", "7", "6"]],
    )
    def test_scenarios_pass(self, scenario, capsys):
        code, out, _ = run(["verify"] + scenario, capsys)
        assert code == 0
        assert "FAIL" not in out
        assert "PASS" in out

    def test_unknown_scenario_exit_3(self, capsys):
        assert run(["verify", "nonsense"], capsys)[0] == 3

    def test_jump_above_limit_exit_3(self, capsys):
        assert run(["verify", "jump", "25"], capsys)[0] == 3

    @pytest.mark.parametrize(
        "scenario", [["transfer", "7", "0"], ["one-sided", "3", "-2"], ["ceiling-1d", "3", "0"]]
    )
    def test_no_random_trials_exit_3(self, scenario, capsys):
        code, out, err = run(["verify"] + scenario, capsys)
        assert code == 3
        assert "PASS" not in out
        assert err.startswith("domain error: the number of random trials")

    @pytest.mark.parametrize("scenario", [["jump", "abc"], ["transfer", "7", "x"]])
    def test_non_integer_parameter_exit_2(self, scenario, capsys):
        code, out, err = run(["verify"] + scenario, capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("input error: scenario parameters must be integers")

    def test_failures_exit_1(self, capsys, monkeypatch):
        import taublab.cli as cli

        def always_fails(checks, params):
            checks.check("forced failure", False)

        monkeypatch.setitem(cli._SCENARIOS, "forced", always_fails)
        code, out, _ = run(["verify", "forced"], capsys)
        assert code == 1
        assert "FAIL" in out


class TestParserReuse:
    def test_main_builds_its_parser_once(self, set_file, monkeypatch, capsys):
        import taublab.cli as cli

        built = []
        monkeypatch.setattr(cli, "_parser", None)
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build_parser())
        for argv in (["eval", set_file, "--point", "4"], ["verify", "example1"],
                     ["eval", set_file, "--point", "4", "--alpha", "1/2"], ["verify", "nonsense"]):
            run(argv, capsys)
        assert len(built) == 1
        assert build_parser() is not build_parser()

    def test_halo_options_do_not_leak(self, set_file, tmp_path, capsys):
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        halo = ["halo", set_file, "--alpha", "1/2", "--out"]
        assert run(halo + [out_a, "--format", "json"], capsys)[0] == 0
        assert run(halo + [out_b], capsys)[0] == 0
        assert json.loads(out_a.read_text())["alpha"] == "1/2"
        assert out_b.read_text().startswith("x0\n")
        assert json.loads(Path(str(out_b) + ".manifest.json").read_text())["config"]["format"] == "csv"

    def test_sweep_flags_do_not_leak(self, tmp_path, capsys, monkeypatch):
        import taublab.cli as cli

        sweep = ["sweep", "--grid", "1/4,1/2", "--max-block", "8", "--out"]
        assert run(sweep[:1] + ["--one-sided"] + sweep[1:] + [tmp_path / "one.csv"], capsys)[0] == 0
        assert run(sweep + [tmp_path / "two.csv"], capsys)[0] == 0
        monkeypatch.setattr(cli, "_parser", None)  # the same call on a fresh parser
        assert run(sweep + [tmp_path / "fresh.csv"], capsys)[0] == 0
        two, fresh = (tmp_path / "two.csv").read_bytes(), (tmp_path / "fresh.csv").read_bytes()
        assert two == fresh != (tmp_path / "one.csv").read_bytes()
        manifest = json.loads((tmp_path / "two.csv.manifest.json").read_text())
        assert manifest["config"]["one_sided"] is False


def test_console_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "taublab", "--version"], capture_output=True, text=True
    )
    assert result.returncode == 0
    assert "taublab" in result.stdout


def test_usage_error_exits_2():
    result = subprocess.run(
        [sys.executable, "-m", "taublab", "eval"], capture_output=True, text=True
    )
    assert result.returncode == 2
