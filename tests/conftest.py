"""Shared fixtures for the test suite."""

import importlib
import itertools

import pytest

from repro.sim import SeedSequence, Simulator

#: Process-global ID streams: (module path, attribute).  Several tests are
#: sensitive to the *values* these produce — ECMP hashes flow labels built
#: from host addresses and message ids — so each test gets fresh streams.
#: Without this, adding a test file anywhere in the suite shifts every
#: counter seen by the tests that run after it, and hash-sensitive
#: assertions (e.g. the exclusion-steering ratios) flap with test order.
_ID_STREAMS = (
    ("repro.net.packet", "_packet_ids"),
    ("repro.net.node", "_addresses"),
    ("repro.core.message", "_message_ids"),
    ("repro.core.reassembly", "_blob_ids"),
    ("repro.core.pathlets", "_pathlet_ids"),
    ("repro.transport.quic", "_connection_ids"),
    ("repro.transport.rdma", "_qp_numbers"),
    ("repro.transport.mptcp", "_meta_ids"),
    ("repro.transport.udp", "_datagram_ids"),
    ("repro.apps.kvs", "_request_ids"),
    ("repro.apps.rpc", "_rpc_ids"),
    ("repro.offloads.gateway", "_session_ids"),
)


@pytest.fixture(autouse=True)
def _fresh_id_streams():
    """Make every test hermetic against global ID-counter drift."""
    for module_path, attribute in _ID_STREAMS:
        module = importlib.import_module(module_path)
        setattr(module, attribute, itertools.count(1))
    yield


@pytest.fixture
def sim():
    """A fresh simulator with the clock at zero."""
    return Simulator()


@pytest.fixture
def seeds():
    """Deterministic seed sequence for stochastic components."""
    return SeedSequence(1234)
