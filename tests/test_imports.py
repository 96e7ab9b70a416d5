import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _loaded_scipy_modules(code):
    code += "; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    path = os.pathsep.join(filter(None, [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, check=True)
    return out.stdout.strip().splitlines()[-1]


def test_import_path_loads_no_scipy():
    # scipy costs more than half of a fresh process's set-up
    assert _loaded_scipy_modules("import sys, poissonext, poissonext.cli") == "[]"


def test_n3_solve_loads_no_scipy(tmp_path):
    # the default configuration is n = 3; its lambda error bar re-solves at
    # half resolution from the spherical-harmonic interpolant of the solution
    code = ("import sys, poissonext.cli; "
            f"assert poissonext.cli.main(['solve', '--out', {str(tmp_path)!r}]) == 0")
    assert _loaded_scipy_modules(code) == "[]"
