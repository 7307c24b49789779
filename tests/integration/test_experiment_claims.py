"""Every registry entry at ``--quick`` scale: each claim is a test id.

Each entry runs once.  The SHA-256 of the block the CLI prints for it is
pinned; if a change is *meant* to move that output, regenerate the pins
and record every moved number in CHANGES.md.
"""

import functools
import hashlib

import pytest

from repro.experiments.registry import EXPERIMENTS, check, render, run

#: The claims that fail today, all from the MTP RTO-backoff regression.
#: Strict, so the change that fixes fig5 must remove these markers.
FIG5_REGRESSION = pytest.mark.xfail(
    strict=True, reason="ROADMAP item 1: fig5 inverted since 7caac65")
KNOWN_FAILURES = {
    ("fig5", "MTP goodput > 1.25x DCTCP"),
    ("fig5", "MTP goodput > 35 Gbps"),
    ("fig5", "MTP converges in every phase"),
    ("ablations", "per-link pathlets > single pathlet"),
    ("ablations", "ecn dialect goodput > 35 Gbps"),
    ("ablations", "ecn dialect converges in every phase"),
    ("ablations", "rate dialect goodput > 35 Gbps"),
}

#: name -> sha256 of the entry's ``python -m repro.experiments --quick``
#: stdout block.
QUICK_BLOCK_SHA256 = {
    "table1":
        "087f734660dd62192d6289f62e506414b228bd318abc2a7ba1a5a7f3d7b81781",
    "fig2":
        "81df6941d515cfdae202c92942f529f240a497f8f2a3675c3ceb112db8034d69",
    "fig3":
        "8c37151b0541d39afd5b55c23f571dc2a747b9254c326b17bccf1408fd868512",
    "fig5":
        "cc8857263027c234210eb670140c9a49b56d97fe3bbf2f48d4632eec67adbb27",
    "fig6":
        "f357a03008c0193500261dd4d3b35c7336427a3c721e1059b9db5d64b3376c55",
    "fig7":
        "4260c7c747ece187d7949b6ee5d648d9c42dc91f30c53bc1f1abca4ab3e5ddc9",
    "fig8":
        "4b1c9ca39ed2fa7dddd21dcc820f5758cf4afe7469745812e47849a6791f9a67",
    "ablations":
        "96bc386d402ece5f309be7e7afa3685c7c5b38b17286360ef160522ae210c219",
}


@functools.lru_cache(maxsize=None)
def _quick(name):
    config, results = run(name, quick=True)
    return results, check(name, config, results)


def _claims():
    for name, experiment in EXPERIMENTS.items():
        for index, claim in enumerate(experiment.claims):
            marks = ([FIG5_REGRESSION]
                     if (name, claim.name) in KNOWN_FAILURES else [])
            yield pytest.param(name, index, id=f"{name}: {claim.name}",
                               marks=marks)


@pytest.mark.parametrize("name,index", _claims())
def test_quick_claim_holds(name, index):
    claim, holds = _quick(name)[1][index]
    assert holds, f"{name}: {claim.name} ({claim.paper})"


@pytest.mark.parametrize("name", list(EXPERIMENTS))
def test_quick_stdout_pinned(name):
    results, verdicts = _quick(name)
    block = render(name, results, verdicts) + "\n"
    assert (hashlib.sha256(block.encode()).hexdigest()
            == QUICK_BLOCK_SHA256[name])
