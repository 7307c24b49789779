"""The paper's Table 1, Figures 2-8 and the ablations at full scale.

One benchmark per registry entry (:mod:`repro.experiments.registry`): it
runs the entry's ``FULL`` config, writes the same block the CLI prints to
``benchmarks/results/<name>.txt`` and asserts every paper claim.
"""

import pytest

from repro.experiments.registry import EXPERIMENTS, check, render, run


@pytest.mark.parametrize("name", list(EXPERIMENTS))
def test_experiment(name, benchmark, report):
    config, results = benchmark.pedantic(lambda: run(name), rounds=1,
                                         iterations=1)
    verdicts = check(name, config, results)
    report(name, render(name, results, verdicts).rstrip("\n"))
    failed = [claim.name for claim, holds in verdicts if not holds]
    assert not failed, f"{name} claims failed: {failed}"
