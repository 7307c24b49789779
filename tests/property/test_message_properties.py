"""Property tests: fragmentation and send/receive state invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Message, ReceiveState, SendState, fragment_sizes

sizes = st.integers(min_value=1, max_value=2_000_000)
payload_caps = st.integers(min_value=100, max_value=9000)


@given(sizes, payload_caps)
@settings(max_examples=300)
def test_fragments_conserve_bytes(total, cap):
    fragments = fragment_sizes(total, cap)
    assert sum(fragments) == total


@given(sizes, payload_caps)
@settings(max_examples=300)
def test_fragments_respect_cap(total, cap):
    fragments = fragment_sizes(total, cap)
    assert all(0 < fragment <= cap for fragment in fragments)


@given(sizes, payload_caps)
@settings(max_examples=300)
def test_only_tail_is_short(total, cap):
    fragments = fragment_sizes(total, cap)
    assert all(fragment == cap for fragment in fragments[:-1])


@given(sizes, payload_caps)
@settings(max_examples=200)
def test_offsets_are_prefix_sums(total, cap):
    message = Message(1, total, max_payload=cap)
    offset = 0
    for pkt_num, size in enumerate(message.packet_sizes):
        assert message.packet_offset(pkt_num) == offset
        offset += size


@given(sizes, payload_caps,
       st.randoms(use_true_random=False))
@settings(max_examples=200)
def test_send_state_completes_in_any_ack_order(total, cap, rng):
    message = Message(1, min(total, 500_000), max_payload=cap)
    state = SendState(message, dst_address=1, dst_port=2)
    order = list(range(message.n_packets))
    rng.shuffle(order)
    for count, pkt_num in enumerate(order, start=1):
        assert not state.complete or count > message.n_packets
        state.mark_acked(pkt_num)
    assert state.complete


@given(st.integers(min_value=1, max_value=200),
       st.randoms(use_true_random=False))
@settings(max_examples=200)
def test_receive_state_any_arrival_order(n_packets, rng):
    state = ReceiveState(src_address=1, msg_id=1,
                         msg_len_bytes=n_packets * 100,
                         msg_len_pkts=n_packets, priority=0, first_seen=0)
    order = list(range(n_packets))
    rng.shuffle(order)
    for pkt_num in order[:-1]:
        state.add_packet(pkt_num, 100)
        assert not state.complete
    state.add_packet(order[-1], 100)
    assert state.complete
    assert state.bytes_received == n_packets * 100
    assert state.missing_packets() == []


@given(st.integers(min_value=2, max_value=100),
       st.randoms(use_true_random=False))
@settings(max_examples=100)
def test_duplicates_never_complete_early(n_packets, rng):
    state = ReceiveState(1, 1, n_packets * 10, n_packets, 0, 0)
    # Deliver the same packet many times: still just one of n.
    for _ in range(50):
        state.add_packet(0, 10)
    assert not state.complete
    assert state.bytes_received == 10
