"""The names perfbench/run.py reaches in webrank exist and are callable.

perfbench/ is frozen between benchmark changes, so a rename or deletion in
src/ that it depends on would only show when the benchmark runs.
"""

import sys
from pathlib import Path

import pytest

import webrank
from webrank import linalg
from webrank.ordinary import GenericPointSampler

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def run():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import run as module
    finally:
        sys.path.remove(str(PERFBENCH))
    return module


def test_every_traced_layer_is_a_callable_of_its_module(run):
    for module_name, function, _ in run.LAYERS:
        module = getattr(webrank, module_name)
        assert callable(getattr(module, function, None)), f"{module_name}.{function}"


def test_counted_sampler_method_exists():
    assert callable(GenericPointSampler.point)


def test_environment_reads_the_backend_constant():
    # environment() records it on every run, --trace 0 included
    assert isinstance(linalg.BACKEND, str)
