"""The names benchmarks/bench_kernels.py reaches in webrank exist.

The script is run by hand, so a rename or deletion in src/ that it depends
on would otherwise only show when someone next runs it.
"""

import ast
import importlib.util
from pathlib import Path

import pytest

from webrank.web import load_balanced_set

SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "bench_kernels.py"


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench_kernels", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # runs its imports, not main()
    return module


def test_script_imports(bench):
    assert callable(bench.main)


def test_module_attributes_it_reads_exist(bench):
    # names read as linalg.X inside the benches, which the import alone does
    # not resolve
    for node in ast.walk(ast.parse(SCRIPT.read_text())):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "linalg"
        ):
            module = getattr(bench, node.value.id)
            assert hasattr(module, node.attr), f"{node.value.id}.{node.attr}"


def test_fixture_it_reads_loads(bench):
    # the k0=5 bench builds its system from a committed web definition
    assert load_balanced_set(str(bench.K0_5_WB_EXTENSION)).k0 == 5


def test_k0_5_first_two_orders_bench_runs(bench):
    # the merged orders-6/7 system of the fixture at n=5, timed once
    label, info, results = bench.bench_k0_5_first_two(1)
    assert info == "882x791, n=5, order 7, dims {6: 329, 7: 324}"
    assert set(results) == {"rank"}
