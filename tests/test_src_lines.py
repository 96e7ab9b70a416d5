import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location("src_lines",
                                               os.path.join(ROOT, "tools", "src_lines.py"))
src_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(src_lines)


def test_each_line_has_one_kind(tmp_path):
    path = tmp_path / "m.py"
    path.write_text('"""Module\n\ndocstring."""\n\n# a comment\nimport os  # trailing\n\n\n'
                    'class C:\n    """One line."""\n\n    def f(self):\n'
                    '        """Two\n        lines."""\n        return "#"\n')
    assert src_lines.split(path) == {"code": 4, "docstring": 6, "comment": 1, "blank": 4}


def test_main_prints_the_split_of_a_tree(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text('"""Doc."""\nx = 1\n')
    (tmp_path / "b.py").write_text("\n# note\n")
    src_lines.main([str(tmp_path)])
    assert capsys.readouterr().out == "code 1 docstring 1 comment 1 blank 1 total 4\n"
