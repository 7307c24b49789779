"""Per-pathlet congestion control at MTP end-hosts.

End-hosts keep one congestion controller per ``(pathlet, traffic class)``
pair rather than per flow (Section 3.1.3): flows sharing a pathlet share
its window, and a path change switches the sender onto the target pathlet's
own, separately evolved window — the property Figure 5 measures.

Three algorithm families interpret the feedback TLV types:

* :class:`WindowEcnController` — DCTCP-style window with ECN-fraction alpha,
* :class:`RateController` — follows an RCP-style explicit rate,
* :class:`DelayController` — Swift-style delay-target window.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..sim.units import SECOND, microseconds
from .feedback import FB_DELAY, FB_ECN, FB_QUEUE, FB_RATE, FB_TRIM, Feedback
from .pathlets import UNKNOWN_PATHLET

__all__ = ["CongestionController", "WindowEcnController", "RateController",
           "DelayController", "PathletCcManager", "controller_for_feedback",
           "register_feedback_algorithm", "FEEDBACK_ALGORITHMS"]

#: Key identifying one congestion state: (pathlet id, traffic class).
CcKey = Tuple[int, str]


class CongestionController:
    """Base window-granting controller for one (pathlet, TC)."""

    def __init__(self, mss: int = 1460, init_window_segments: int = 10):
        self.mss = mss
        self.cwnd = init_window_segments * mss
        self.min_window = mss
        self.rtt_est: Optional[int] = None
        self.acked_bytes = 0
        self.losses = 0
        self._window_limited = True

    def window(self) -> int:
        """Current allowance of in-flight bytes on this pathlet."""
        return max(self.min_window, int(self.cwnd))

    def on_ack(self, feedback: Optional[Feedback], acked_bytes: int,
               rtt_ns: Optional[int], now: int,
               inflight: Optional[int] = None) -> None:
        """Process acknowledgement of ``acked_bytes`` that used this pathlet.

        ``inflight`` (bytes currently charged to this pathlet) enables
        congestion-window validation: a window the sender is not filling
        must not keep growing, or an uncongested pathlet accumulates an
        unbounded window that bursts into whatever path the network
        switches to next (RFC 7661's rationale, acutely important with
        network-controlled multipath).
        """
        self.acked_bytes += acked_bytes
        if rtt_ns is not None and rtt_ns > 0:
            self.rtt_est = rtt_ns if self.rtt_est is None else (
                (7 * self.rtt_est + rtt_ns) // 8)
        self._window_limited = (inflight is None
                                or 2 * inflight >= self.cwnd)
        self._react(feedback, acked_bytes, now)

    def on_loss(self, now: int) -> None:
        """React to a retransmission timeout charged to this pathlet."""
        self.losses += 1
        self.cwnd = max(self.min_window, self.cwnd // 2)

    def _react(self, feedback: Optional[Feedback], acked_bytes: int,
               now: int) -> None:
        raise NotImplementedError

    def _rtt(self) -> int:
        return self.rtt_est if self.rtt_est else microseconds(20)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} cwnd={int(self.cwnd)}>"


class WindowEcnController(CongestionController):
    """DCTCP-style: ECN-fraction ``alpha`` scales a once-per-RTT reduction."""

    def __init__(self, mss: int = 1460, init_window_segments: int = 10,
                 g: float = 1.0 / 16.0, ssthresh: Optional[int] = None):
        super().__init__(mss, init_window_segments)
        self.g = g
        self.alpha = 1.0
        self.ssthresh = ssthresh if ssthresh is not None else 1 << 48
        self._win_acked = 0
        self._win_marked = 0
        self._win_end = 0
        self._cwr_until = -1

    def _react(self, feedback: Optional[Feedback], acked_bytes: int,
               now: int) -> None:
        marked = (feedback is not None and feedback.value > 0
                  and feedback.type in (FB_ECN, FB_TRIM))
        self._win_acked += acked_bytes
        if marked:
            self._win_marked += acked_bytes
            if now > self._cwr_until:
                self._cwr_until = now + self._rtt()
                self.cwnd = max(self.min_window,
                                int(self.cwnd * (1 - self.alpha / 2)))
                self.ssthresh = self.cwnd
        # DCTCP semantics: growth continues on every acknowledged byte —
        # the once-per-window alpha cut is the whole congestion response.
        # (Growing only on unmarked ACKs would make MTP structurally meeker
        # than the DCTCP flows it shares queues with.)  Growth is gated on
        # actually *using* the window (cwnd validation, see on_ack).
        if self._window_limited:
            if self.cwnd < self.ssthresh:
                self.cwnd += acked_bytes
            else:
                self.cwnd += max(1, self.mss * acked_bytes
                                 // int(self.cwnd))
        if now >= self._win_end:
            if self._win_acked > 0:
                fraction = self._win_marked / self._win_acked
                self.alpha = (1 - self.g) * self.alpha + self.g * fraction
            self._win_acked = 0
            self._win_marked = 0
            self._win_end = now + self._rtt()

    def on_loss(self, now: int) -> None:
        super().on_loss(now)
        self.ssthresh = self.cwnd


class RateController(CongestionController):
    """RCP-style: the network tells us the rate; window = rate x RTT."""

    def __init__(self, mss: int = 1460, init_window_segments: int = 10,
                 smoothing: float = 0.5):
        super().__init__(mss, init_window_segments)
        self.smoothing = smoothing
        self.rate_bps: Optional[float] = None

    def _react(self, feedback: Optional[Feedback], acked_bytes: int,
               now: int) -> None:
        if feedback is None or feedback.type != FB_RATE:
            return
        if self.rate_bps is None:
            self.rate_bps = feedback.value
        else:
            self.rate_bps = ((1 - self.smoothing) * self.rate_bps
                             + self.smoothing * feedback.value)
        self.cwnd = max(self.min_window,
                        int(self.rate_bps * self._rtt() / (8 * SECOND)))

    def on_loss(self, now: int) -> None:
        self.losses += 1
        if self.rate_bps is not None:
            self.rate_bps *= 0.5
        self.cwnd = max(self.min_window, self.cwnd // 2)


class DelayController(CongestionController):
    """Swift-style: grow below the delay target, shrink in proportion above."""

    def __init__(self, mss: int = 1460, init_window_segments: int = 10,
                 target_delay_ns: int = microseconds(5),
                 additive_increase: float = 1.0, beta: float = 0.8,
                 max_decrease: float = 0.5):
        super().__init__(mss, init_window_segments)
        self.target_delay_ns = target_delay_ns
        self.additive_increase = additive_increase
        self.beta = beta
        self.max_decrease = max_decrease
        self._md_until = -1

    def _react(self, feedback: Optional[Feedback], acked_bytes: int,
               now: int) -> None:
        if feedback is None or feedback.type != FB_DELAY:
            return
        delay = feedback.value
        if delay <= self.target_delay_ns:
            self.cwnd += (self.additive_increase * self.mss * acked_bytes
                          / max(self.cwnd, 1))
        elif now > self._md_until:
            self._md_until = now + self._rtt()
            over = (delay - self.target_delay_ns) / max(delay, 1.0)
            factor = max(1 - self.beta * over, self.max_decrease)
            self.cwnd = max(self.min_window, self.cwnd * factor)


#: Feedback type -> controller factory ``(mss, init_window_segments) ->
#: CongestionController``.  Extend via :func:`register_feedback_algorithm`.
FEEDBACK_ALGORITHMS: Dict[int, object] = {
    FB_RATE: RateController,
    FB_DELAY: DelayController,
    FB_ECN: WindowEcnController,
    FB_TRIM: WindowEcnController,
}


def register_feedback_algorithm(feedback_type: int, factory) -> None:
    """Install a custom congestion algorithm for a feedback TLV type.

    ``factory(mss, init_window_segments)`` must return a
    :class:`CongestionController`.  Registration is process-global — it
    models deploying a new algorithm fleet-wide, which is exactly the
    flexibility Section 3.1.3 argues for.
    """
    FEEDBACK_ALGORITHMS[feedback_type] = factory


def controller_for_feedback(feedback: Optional[Feedback], mss: int,
                            init_window_segments: int) -> CongestionController:
    """Instantiate the registered algorithm for a feedback type.

    By default ECN and trim feedback get a window algorithm, explicit-rate
    gets the rate follower, delay gets the delay-target algorithm;
    unknown/no feedback falls back to the window algorithm (which then
    behaves like TCP-with-ECN that never sees marks until it loses
    packets).
    """
    if feedback is not None:
        factory = FEEDBACK_ALGORITHMS.get(feedback.type)
        if factory is not None:
            return factory(mss, init_window_segments)
    return WindowEcnController(mss, init_window_segments)


class PathletCcManager:
    """The end-host side of pathlet congestion control.

    Tracks, per ``(pathlet, tc)``: a congestion controller and the bytes
    currently charged (in flight).  Packets are charged to the *assumed*
    path — the most recent path the network reported for that destination —
    and uncharged when their acknowledgement (or loss) resolves.
    """

    def __init__(self, mss: int = 1460, init_window_segments: int = 10,
                 ecn_congested_alpha: float = 0.5,
                 failover_loss_threshold: int = 3):
        self.mss = mss
        self.init_window_segments = init_window_segments
        self.ecn_congested_alpha = ecn_congested_alpha
        #: Consecutive timeouts on one (pathlet, tc) before the pathlet is
        #: declared failed and excluded from future sends.
        self.failover_loss_threshold = failover_loss_threshold
        self._controllers: Dict[CcKey, CongestionController] = {}
        self._inflight: Dict[CcKey, int] = {}
        self._active_path: Dict[int, Tuple[int, ...]] = {}
        #: (pathlet, tc) -> consecutive RTO losses with no intervening ACK.
        self._consec_losses: Dict[CcKey, int] = {}

    # -- path knowledge -------------------------------------------------

    def path_for(self, dst_address: int) -> Tuple[int, ...]:
        """Assumed path (pathlet ids) toward a destination."""
        return self._active_path.get(dst_address, (UNKNOWN_PATHLET,))

    def learn_path(self, dst_address: int, path: Tuple[int, ...]) -> None:
        """Record the path the network most recently reported."""
        if path:
            self._active_path[dst_address] = path

    # -- controllers ----------------------------------------------------

    def controller(self, pathlet_id: int, tc: str,
                   feedback: Optional[Feedback] = None
                   ) -> CongestionController:
        """The controller for ``(pathlet_id, tc)``, created lazily.

        The algorithm is chosen from the first feedback seen for the pair,
        so an RCP pathlet gets a rate follower while an ECN pathlet on the
        same path gets a window algorithm.
        """
        key = (pathlet_id, tc)
        controller = self._controllers.get(key)
        if controller is None:
            controller = controller_for_feedback(
                feedback, self.mss, self.init_window_segments)
            self._controllers[key] = controller
        return controller

    def window(self, pathlet_id: int, tc: str) -> int:
        """Window of one (pathlet, tc) without creating state."""
        controller = self._controllers.get((pathlet_id, tc))
        if controller is None:
            return self.init_window_segments * self.mss
        return controller.window()

    def inflight(self, pathlet_id: int, tc: str) -> int:
        """Bytes currently charged to one (pathlet, tc)."""
        return self._inflight.get((pathlet_id, tc), 0)

    # -- admission ------------------------------------------------------

    def can_send(self, dst_address: int, tc: str, nbytes: int) -> bool:
        """True when every pathlet on the assumed path has window headroom."""
        for pathlet_id in self.path_for(dst_address):
            if (self.inflight(pathlet_id, tc) + nbytes
                    > self.window(pathlet_id, tc)):
                return False
        return True

    def charge(self, path: Tuple[int, ...], tc: str, nbytes: int) -> None:
        """Charge ``nbytes`` in flight against every pathlet of ``path``."""
        for pathlet_id in path:
            key = (pathlet_id, tc)
            self._inflight[key] = self._inflight.get(key, 0) + nbytes

    def uncharge(self, path: Tuple[int, ...], tc: str, nbytes: int) -> None:
        """Release a previous charge (on acknowledgement or loss)."""
        for pathlet_id in path:
            key = (pathlet_id, tc)
            remaining = self._inflight.get(key, 0) - nbytes
            if remaining > 0:
                self._inflight[key] = remaining
            else:
                self._inflight.pop(key, None)

    # -- feedback -------------------------------------------------------

    def on_ack(self, dst_address: int, tc: str,
               feedback_path, acked_bytes: int,
               rtt_ns: Optional[int], now: int) -> None:
        """Apply the feedback list echoed on an acknowledgement.

        ``feedback_path`` is the header's ``ack_path_feedback`` —
        ``(pathlet_id, network_tc, Feedback)`` triples in path order.
        """
        if feedback_path:
            self.learn_path(dst_address,
                            tuple(pid for pid, _, _ in feedback_path))
            for pathlet_id, _network_tc, feedback in feedback_path:
                controller = self.controller(pathlet_id, tc, feedback)
                controller.on_ack(feedback, acked_bytes, rtt_ns, now,
                                  inflight=self.inflight(pathlet_id, tc))
                # A delivery through this pathlet proves it alive again.
                self._consec_losses.pop((pathlet_id, tc), None)
        else:
            controller = self.controller(UNKNOWN_PATHLET, tc)
            controller.on_ack(None, acked_bytes, rtt_ns, now,
                              inflight=self.inflight(UNKNOWN_PATHLET, tc))
            self._consec_losses.pop((UNKNOWN_PATHLET, tc), None)

    def on_loss(self, path: Tuple[int, ...], tc: str, now: int) -> None:
        """Penalize every pathlet the lost packet was charged to.

        Crossing the consecutive-loss threshold declares the pathlet
        failed: any destination whose assumed path runs through it is
        forgotten, so subsequent sends fall back to the unknown-path
        controller (fresh window, nothing charged) instead of queueing
        behind a window full of bytes the dead pathlet will never
        acknowledge.  The next acknowledgement re-learns the live path.
        """
        for pathlet_id in path:
            self.controller(pathlet_id, tc).on_loss(now)
            key = (pathlet_id, tc)
            count = self._consec_losses.get(key, 0) + 1
            self._consec_losses[key] = count
            if (count >= self.failover_loss_threshold
                    and pathlet_id != UNKNOWN_PATHLET):
                self._forget_pathlet(pathlet_id)

    def _forget_pathlet(self, pathlet_id: int) -> None:
        """Drop a failed pathlet from every destination's assumed path."""
        stale = [dst for dst, path in self._active_path.items()
                 if pathlet_id in path]
        for dst in stale:
            del self._active_path[dst]

    def failed_pathlets(self, tc: str) -> list:
        """Pathlets presumed dead for ``tc`` (consecutive-RTO threshold).

        A pathlet that has absorbed ``failover_loss_threshold`` timeouts
        without a single acknowledgement in between is treated as failed;
        senders exclude it so the network steers traffic onto survivors
        within a bounded number of RTOs.  The verdict clears the moment an
        acknowledgement arrives through the pathlet again.
        """
        threshold = self.failover_loss_threshold
        return sorted(
            pathlet_id
            for (pathlet_id, key_tc), losses in self._consec_losses.items()
            if key_tc == tc and pathlet_id != UNKNOWN_PATHLET
            and losses >= threshold)

    # -- congestion signalling back to the network ----------------------

    def congested_pathlets(self, tc: str) -> list:
        """Pathlets this host currently considers congested for ``tc``.

        A pathlet is reported when its ECN alpha is high or its window is
        pinned at the minimum — the signal end-hosts place in the header's
        path-exclude list so the network steers around the resource.
        """
        congested = []
        for (pathlet_id, key_tc), controller in self._controllers.items():
            if key_tc != tc or pathlet_id == UNKNOWN_PATHLET:
                continue
            pinned = controller.window() <= controller.min_window
            hot_alpha = (isinstance(controller, WindowEcnController)
                         and controller.alpha >= self.ecn_congested_alpha
                         and controller.acked_bytes > 0)
            if pinned or hot_alpha:
                congested.append(pathlet_id)
        return congested
