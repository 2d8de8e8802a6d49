"""`import czlab` loads numpy and the standard library only: neither the test
extras nor the sweep's worker-process machinery come with it."""

import subprocess
import sys
from pathlib import Path

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
