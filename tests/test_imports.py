"""What importing webrank loads, each case in a fresh interpreter.

`import webrank` resolves its exports and submodules on first access, so
the catalog's families build without the rank engine or mpmath, while the
command line still loads every engine module at its top.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from webrank import linalg

SRC = Path(__file__).resolve().parents[1] / "src"

ENGINE = ["webrank.abelrank", "webrank.ordinary", "webrank.jets", "webrank.linalg"]

# the package's exports, by defining module, as `from .module import ...`
# listed them when `import webrank` loaded every module
EXPORTS = {
    "abelrank": ["RankEstimate", "rank_estimate", "verify_max_rank"],
    "catalog": ["FamilySpec", "family_names", "get_family"],
    "combin": [
        "binom",
        "calibrated_max_rank",
        "calibration_order",
        "exact_support_dims",
        "max_rank_bound",
        "monomial_count",
        "verify_counting_identities",
    ],
    "expr": ["Expr", "diff", "evaluate", "parse", "to_text"],
    "jets": ["jet_matrix_from_gradients", "square_block"],
    "ordinary": [
        "GenericPointSampler",
        "check_finite_criterion",
        "check_ordinary_at",
        "crosscheck_ordinary",
    ],
    "report": ["VerificationReport"],
    "scalars": ["EXACT", "Mode"],
    "tpoly": ["taylor", "vars_used"],
    "web": [
        "AssembledWeb",
        "BalancedSet",
        "GeneratingWeb",
        "assemble",
        "balanced_set",
        "cross_ratio_family",
        "is_quasi_symmetric",
        "load_balanced_set",
        "multi_indices",
        "validate_balanced",
    ],
}


def fresh(code: str):
    """Run code in a fresh interpreter importing webrank from src/; the
    JSON value it prints last."""
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


LOADED = """
import json, sys
loaded = [m for m in sys.modules if m.startswith("webrank") or m == "mpmath"]
print(json.dumps(loaded))
"""


@pytest.mark.parametrize(
    "code",
    [
        "import webrank",
        "from webrank import catalog\n"
        "for name in catalog.family_names():\n"
        "    catalog.get_family(name)",
    ],
    ids=["import", "catalog"],
)
def test_the_catalog_loads_no_engine_module_and_no_mpmath(code):
    loaded = set(fresh(code + LOADED))
    assert "webrank" in loaded
    assert loaded.isdisjoint(ENGINE + ["mpmath"])


def test_the_cli_loads_every_engine_module():
    loaded = set(fresh("import webrank.cli" + LOADED))
    modules = {f"webrank.{path.stem}" for path in (SRC / "webrank").glob("*.py")}
    assert loaded == modules - {"webrank.__init__"} | {"webrank"}


def test_every_export_resolves_to_its_defining_module():
    checks = fresh(
        f"""
import importlib, json
import webrank
out = []
for module, names in {EXPORTS!r}.items():
    defining = importlib.import_module("webrank." + module)
    for name in names:
        scope = {{}}
        exec(f"from webrank import {{name}}", scope)
        out.append([
            name,
            getattr(webrank, name) is getattr(defining, name),
            scope[name] is getattr(defining, name),
            name in dir(webrank),
        ])
print(json.dumps(out))
"""
    )
    assert len(checks) == sum(map(len, EXPORTS.values()))
    for name, *found in checks:
        assert found == [True, True, True], name


def test_submodules_resolve_on_first_access_and_unknown_names_raise():
    backend, raised, listed = fresh(
        """
import json
import webrank
backend = webrank.linalg.BACKEND
try:
    webrank.no_such_name
except AttributeError:
    raised = True
else:
    raised = False
print(json.dumps([backend, raised, {"linalg", "cli", "catalog"} <= set(dir(webrank))]))
"""
    )
    assert backend == linalg.BACKEND
    assert raised and listed
