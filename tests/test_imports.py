"""`import czlab` loads numpy and the standard library only: neither the test
extras nor the sweep's worker-process machinery come with it.  Every name a
module exports exists, and the package re-exports only exported names."""

import ast
import importlib
import pkgutil
import subprocess
import sys
from pathlib import Path

import czlab

OPTIONAL = ("scipy", "hypothesis", "multiprocessing", "concurrent.futures")


def test_import_czlab_loads_no_optional_module():
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import czlab; "
        f"print(' '.join(m for m in {OPTIONAL!r} if m in sys.modules))"
    )
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == []


def test_every_exported_name_exists():
    modules = [importlib.import_module(f"czlab.{m.name}") for m in pkgutil.iter_modules(czlab.__path__)]
    assert modules
    for module in modules:
        assert [name for name in module.__all__ if not hasattr(module, name)] == [], module.__name__


def test_package_reexports_only_exported_names():
    tree = ast.parse(Path(czlab.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"czlab.{node.module}")
        assert [a.name for a in node.names if a.name not in module.__all__] == [], node.module
