import importlib.util
import json
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location("report_moves",
                                               os.path.join(ROOT, "tools", "report_moves.py"))
report_moves = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(report_moves)


def _run(tree, name, report, code=0):
    run = tree / name
    run.mkdir(parents=True)
    (run / "exit").write_text(f"{code}\n")
    if report is not None:
        (run / "report.json").write_text(json.dumps(report))


def test_float_moves_print_largest_first_and_exit_0(tmp_path, capsys):
    base = {"passed": True, "report": {"lam": 2.0, "dev": 1e-16, "runs": [{"lam": 4.0}],
                                       "same": 0.5, "nan": float("nan")}}
    head = {"passed": True, "report": {"lam": 2.0 + 2 ** -51, "dev": 3e-16,
                                       "runs": [{"lam": 4.0 + 2 ** -50}], "same": 0.5,
                                       "nan": float("nan")}}
    _run(tmp_path / "base", "default-solve", base)
    _run(tmp_path / "head", "default-solve", head)
    _run(tmp_path / "base", "default-verify", {"x": 1.0})
    _run(tmp_path / "head", "default-verify", {"x": 1.0})
    assert report_moves.main([str(tmp_path / "base"), str(tmp_path / "head")]) == 0
    assert capsys.readouterr().out == (
        "default-solve: 3 float(s) moved\n"
        "  report.dev: 1e-16 -> 3e-16 (relative 2)\n"
        "  report.lam: 2.0 -> 2.0000000000000004 (relative 2.2e-16)\n"
        "  report.runs[0].lam: 4.0 -> 4.000000000000001 (relative 2.2e-16)\n"
        "largest relative move per key (moves):\n"
        "  report.dev: 2 (1)\n"
        "  report.lam: 2.2e-16 (1)\n"
        "  report.runs[].lam: 2.2e-16 (1)\n"
        "2 runs, 3 float(s) moved, 0 other change(s)\n")


def test_other_changes_are_listed_apart_and_exit_1(tmp_path, capsys):
    _run(tmp_path / "base", "ex-sharp", {"passed": True, "n": 3, "s": "a", "keys": {"a": 0.0},
                                         "v": 1.0, "none": None})
    _run(tmp_path / "head", "ex-sharp", {"passed": False, "n": 4, "s": "b", "keys": {"b": 0.0},
                                         "v": 1, "none": 0.0}, code=1)
    _run(tmp_path / "base", "ex-solve", {"x": 0.0})
    _run(tmp_path / "head", "ex-solve", {"x": 1e-300})
    _run(tmp_path / "head", "ex-verify", None, code=2)
    assert report_moves.main([str(tmp_path / "base"), str(tmp_path / "head")]) == 1
    assert capsys.readouterr().out == (
        "ex-solve: 1 float(s) moved\n"
        "  x: 0.0 -> 1e-300 (relative inf)\n"
        "largest relative move per key (moves):\n"
        "  x: inf (1)\n"
        "3 runs, 1 float(s) moved, 9 other change(s)\n"
        "  ex-sharp exit code: '0' -> '1'\n"
        "  ex-sharp keys.a: only in base\n"
        "  ex-sharp keys.b: only in head\n"
        "  ex-sharp n: 3 -> 4\n"
        "  ex-sharp none: None -> 0.0\n"
        "  ex-sharp passed: True -> False\n"
        "  ex-sharp s: 'a' -> 'b'\n"
        "  ex-sharp v: 1.0 -> 1\n"
        "  ex-verify: only in head\n")
