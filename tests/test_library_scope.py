"""The library holds what a shot executes: the Broadwell/Skylake model and
its tuner are figure artefacts under ``benchmarks/paper_model/``, and the
cache simulator is gone."""

import importlib.util

import pytest


@pytest.mark.parametrize("name", ["repro.machine", "repro.autotuning", "repro.execution.trace"])
def test_the_performance_model_is_not_in_the_library(name):
    assert importlib.util.find_spec(name) is None
