"""The package runs on numpy alone: importing its entry points loads no scipy."""

import os
import pathlib
import subprocess
import sys

import mugl

SRC = pathlib.Path(mugl.__file__).resolve().parent.parent


def test_entry_points_import_no_scipy():
    code = (
        "import sys\n"
        "import mugl.cli, mugl.harness, mugl.datagen, mugl.evaluation\n"
        "print(sorted(n for n in sys.modules if n == 'scipy' or n.startswith('scipy.')))\n"
    )
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout.strip() == "[]"
