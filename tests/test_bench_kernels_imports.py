"""The names benchmarks/bench_kernels.py reaches in webrank exist.

The script is run by hand, so a rename or deletion in src/ that it depends
on would otherwise only show when someone next runs it.
"""

import ast
import importlib.util
from pathlib import Path

import pytest

from webrank.abelrank import _relation_rows, rank_estimate
from webrank.catalog import get_family
from webrank.scalars import EXACT
from webrank.web import assemble, load_balanced_set

from helpers import generic_point

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


def test_k0_5_growth_bench_runs(bench):
    # the fixture's estimate at n=5 grown through orders 6, 7 and 8, once
    label, info, results = bench.bench_k0_5_growth(1)
    assert info == "n=5, dims {6: 329, 7: 324, 8: 324}"
    assert set(results) == {"grow"}


def test_modular_bench_runs(bench):
    # the exp family's order-6 system at n=4: modular_extend and the float
    # kernel agree on its rank, once
    label, info, results = bench.bench_modular(1)
    assert info == "209 monomial rows rank 139"
    assert set(results) == {"rows", "rank", "float"}


def test_timings_give_the_best_and_the_median(bench, monkeypatch):
    ticks = iter([0.0, 0.5, 1.0, 1.1, 2.0, 2.3])  # runs of 0.5, 0.1, 0.3 s
    monkeypatch.setattr(bench.time, "perf_counter", lambda: next(ticks))
    assert bench._time(lambda: None, 3) == pytest.approx((0.1, 0.3))


def test_two_batch_dims_match_the_pipeline(bench):
    # the bench's two exact_extend calls give rank_estimate's first two dims
    E, _ = get_family("k0_3_sym_prod")
    W = assemble(E, 3)
    point = generic_point(W, 0, EXACT)
    rows, _ = _relation_rows(W, point, 5, EXACT, 8)
    dims = bench._two_batch_dims(W, rows, 4, 8)
    assert dims == rank_estimate(W, point, 4, 5, EXACT).dims
