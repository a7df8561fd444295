"""The package's shape: it runs on numpy alone, importing its entry points
loads no scipy, and every public function is reached from the package."""

import ast
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


# criterion 2 checks the two worst-case closed forms against numerical
# suprema; nothing else needs them
REACHED_FROM_TESTS_ONLY = {"worst_case_mean_risk", "worst_case_cov_risk"}


def test_every_public_function_is_named_in_the_package():
    # a function only tests call belongs in tests/oracles.py
    trees = [ast.parse(path.read_text()) for path in sorted((SRC / "mugl").glob("*.py"))]
    defined = {
        node.name
        for tree in trees
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    }
    named = {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    }
    assert REACHED_FROM_TESTS_ONLY <= defined
    assert sorted(defined - named - REACHED_FROM_TESTS_ONLY) == []
