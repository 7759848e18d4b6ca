import os
import pathlib
import subprocess
import sys

import gwsos


def test_package_imports_no_scipy_linalg_or_sparse():
    # the runtime needs numpy and click only, and loads no scipy module
    # at all: scipy.linalg and scipy.sparse alone took half of the
    # package's import time, and scipy is a test dependency only
    code = ("import sys, gwsos, gwsos.cli; "
            "print(' '.join(m for m in sys.modules "
            "if m.startswith('scipy')))")
    src = pathlib.Path(gwsos.__file__).resolve().parent.parent
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=60,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stdout.split() == []
