"""The DMA-TA slack account (Section 4.1.2).

The account enforces the soft guarantee that the *average* DMA-memory
request service time stays within ``(1 + mu) * T``:

* every arrived DMA-memory request deposits ``mu * T`` of credit;
* at the start of each epoch, ``epochLength * n`` is charged, where ``n``
  is the number of pending (buffered) requests — the pessimistic
  assumption that every pending request will wait the whole epoch;
* waking a chip charges its wake latency times the requests pending for
  it;
* processor accesses charge their service time times the DMA-memory
  requests pending for the chip they hit.

The release rule compares the projected additional queueing delay
``n * U / 2`` — with ``U = m * T * ceil(r / k)`` an upper bound on the
time to serve all pending requests — against the available slack: once
``n * U / 2`` is close to (here: at least ``release_fraction`` of) the
slack, waiting any longer risks the guarantee, so the chip must start.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import ConfigurationError
from repro.obs.events import TRACK_CONTROLLER

if TYPE_CHECKING:
    from repro.obs.tracer import Tracer


@dataclass
class SlackAccount:
    """Credit/charge ledger for the DMA-TA performance guarantee.

    Attributes:
        mu: per-request degradation allowance.
        service_cycles: ``T``, the undisturbed per-request service time.
        num_buses: ``r``.
        saturating_buses: ``k = ceil(Rm/Rb)``.
        release_fraction: release once ``n*U/2 >= fraction * slack``.
        undercharge_fraction: fault-injection knob for the audit layer —
            the pessimistic epoch charge is scaled by ``1 - fraction``,
            deliberately under-charging the account so tests and
            ``repro audit --inject-undercharge`` can prove the auditor
            catches it. 0 (the default) is the correct scheme.
        tracer: optional event tracer; charges, release decisions, and
            budget violations are emitted on the controller track.
    """

    mu: float
    service_cycles: float
    num_buses: int
    saturating_buses: int
    release_fraction: float = 1.0
    undercharge_fraction: float = 0.0
    tracer: "Tracer | None" = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.mu < 0:
            raise ConfigurationError("mu must be non-negative")
        if self.service_cycles <= 0:
            raise ConfigurationError("service_cycles must be positive")
        if self.num_buses <= 0 or self.saturating_buses <= 0:
            raise ConfigurationError("bus counts must be positive")
        if not 0 < self.release_fraction <= 1:
            raise ConfigurationError("release_fraction must be in (0, 1]")
        if not 0 <= self.undercharge_fraction < 1:
            raise ConfigurationError(
                "undercharge_fraction must be in [0, 1)")
        #: Cycles charged so far. The DMA-TA controller's epoch loop adds
        #: each tick's :meth:`epoch_charge` to it in place.
        self.total_charges = 0.0
        self._violations = 0

    @property
    def violations(self) -> int:
        """Times the observed slack dipped below zero (budget at risk)."""
        return self._violations

    # --- credits ----------------------------------------------------------

    def credit_per_request(self) -> float:
        """The ``mu * T`` deposited by each arriving request."""
        return self.mu * self.service_cycles

    def slack(self, arrived_requests: float) -> float:
        """Available slack given the total arrived request count.

        Negative slack means the guarantee is currently at risk; the
        pessimistic epoch charging is designed to release chips before
        that happens.
        """
        return (arrived_requests * self.credit_per_request()
                - self.total_charges)

    # --- charges ----------------------------------------------------------

    def epoch_charge(self, epoch_cycles: float,
                     pending_requests: int) -> float:
        """Cycles one epoch tick charges: all pending wait the epoch out."""
        return (epoch_cycles * pending_requests
                * (1.0 - self.undercharge_fraction))

    def charge_epoch(self, epoch_cycles: float, pending_requests: int,
                     now: float = 0.0) -> None:
        """Pessimistic epoch-start charge for one tick, with its event.

        The DMA-TA controller's ``settle_epochs`` adds the same
        :meth:`epoch_charge` and emits the same event for each tick of a
        run of ticks.
        """
        charged = self.epoch_charge(epoch_cycles, pending_requests)
        self.total_charges += charged
        if self.tracer is not None and pending_requests:
            self.emit_epoch_charge(now, charged, pending_requests,
                                   epoch_cycles)

    def emit_epoch_charge(self, now: float, charged: float, pending: int,
                          epoch_cycles: float) -> None:
        """The ``slack.charge_epoch`` event of one tick (tracer set)."""
        # The event reports the cycles ACTUALLY charged (post any injected
        # fault) plus the epoch length, so the auditor can independently
        # recompute epoch * pending and flag the gap.
        self.tracer.instant(now, "slack.charge_epoch", TRACK_CONTROLLER,
                            {"cycles": charged, "pending": pending,
                             "epoch": epoch_cycles})

    def charge_wake(self, wake_latency: float, pending_requests: int,
                    now: float = 0.0) -> None:
        """Charge a chip activation against the requests it delays."""
        self.total_charges += wake_latency * pending_requests
        if self.tracer is not None:
            self.tracer.instant(now, "slack.charge_wake", TRACK_CONTROLLER,
                                {"cycles": wake_latency * pending_requests,
                                 "pending": pending_requests})

    def charge_processor(self, work_cycles: float, pending_requests: int,
                         now: float = 0.0) -> None:
        """Charge processor service time against delayed DMA requests."""
        self.total_charges += work_cycles * pending_requests
        if self.tracer is not None:
            self.tracer.instant(now, "slack.charge_processor",
                                TRACK_CONTROLLER,
                                {"cycles": work_cycles * pending_requests,
                                 "pending": pending_requests})

    # --- release test -------------------------------------------------------

    def service_upper_bound(self, pending_by_bus: dict[int, int]) -> float:
        """``U = m * T * ceil(r / k)`` (Section 4.1.2).

        ``m`` is the largest number of pending requests from any one bus;
        requests can be grouped ``k`` per service round across distinct
        buses, so all pending requests complete within ``U``.
        """
        if not pending_by_bus:
            return 0.0
        m = max(pending_by_bus.values())
        groups = math.ceil(self.num_buses / self.saturating_buses)
        return m * self.service_cycles * groups

    def projected_delay(self, pending_by_bus: dict[int, int]) -> float:
        """``n * U / 2``: the queueing delay the pending requests face."""
        n = sum(pending_by_bus.values())
        return n * self.service_upper_bound(pending_by_bus) / 2.0

    def should_release(self, pending_by_bus: dict[int, int],
                       arrived_requests: float, now: float = 0.0) -> bool:
        """True if the pending requests for a chip must start now.

        Two triggers (Section 4.1.1-4.1.2):

        1. requests from ``k`` distinct buses are pending — full chip
           utilisation is achievable, gathering more has no benefit;
        2. the projected queueing delay ``n * U / 2`` has reached the
           release fraction of the available slack — waiting longer would
           endanger the guarantee.
        """
        if not pending_by_bus:
            return False
        if len(pending_by_bus) >= self.saturating_buses:
            return True
        projected = self.projected_delay(pending_by_bus)
        slack = self.slack(arrived_requests)
        if slack < 0.0:
            self._violations += 1
            if self.tracer is not None:
                self.tracer.instant(now, "slack.violation", TRACK_CONTROLLER,
                                    {"slack": slack, "projected": projected})
        if self.tracer is not None:
            self.tracer.counter(now, "slack", TRACK_CONTROLLER, slack)
        return projected >= self.release_fraction * slack
