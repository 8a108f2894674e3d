"""Units for the DMA-TA slack account (Section 4.1.2)."""

import pytest

from repro.core.slack import SlackAccount
from repro.errors import ConfigurationError


@pytest.fixture
def account():
    return SlackAccount(mu=2.0, service_cycles=4.0, num_buses=3,
                        saturating_buses=3)


class TestCredits:
    def test_credit_per_request_is_mu_T(self, account):
        assert account.credit_per_request() == pytest.approx(8.0)

    def test_slack_grows_with_arrivals(self, account):
        assert account.slack(0) == 0.0
        assert account.slack(100) == pytest.approx(800.0)

    def test_charges_reduce_slack(self, account):
        account.charge_epoch(epoch_cycles=50.0, pending_requests=4)
        assert account.slack(100) == pytest.approx(800.0 - 200.0)

    def test_wake_charge(self, account):
        account.charge_wake(wake_latency=96.0, pending_requests=2)
        assert account.total_charges == pytest.approx(192.0)

    def test_processor_charge(self, account):
        account.charge_processor(work_cycles=32.0, pending_requests=3)
        assert account.total_charges == pytest.approx(96.0)

    def test_negative_slack_possible(self, account):
        account.charge_epoch(1000.0, 10)
        assert account.slack(0) < 0


class TestServiceUpperBound:
    def test_paper_formula(self, account):
        """U = m * T * ceil(r / k)."""
        # m = 2, T = 4, ceil(3/3) = 1.
        assert account.service_upper_bound({0: 2, 1: 1}) == pytest.approx(8.0)

    def test_more_buses_than_k(self):
        account = SlackAccount(mu=1.0, service_cycles=4.0, num_buses=6,
                               saturating_buses=3)
        # ceil(6/3) = 2 groups.
        assert account.service_upper_bound({0: 1}) == pytest.approx(8.0)

    def test_empty(self, account):
        assert account.service_upper_bound({}) == 0.0


class TestRelease:
    def test_k_distinct_buses_releases(self, account):
        assert account.should_release({0: 1, 1: 1, 2: 1}, arrived_requests=1e9)

    def test_waits_with_plenty_of_slack(self, account):
        # One pending head, lots of credit: keep gathering.
        assert not account.should_release({0: 1}, arrived_requests=10_000)

    def test_releases_when_slack_too_small(self, account):
        # n*U/2 = 1 * 4 * 1 / 2 = 2 cycles; slack from one request = 8.
        # Charge it away so the projection exceeds the slack.
        account.charge_epoch(10.0, 1)
        assert account.should_release({0: 1}, arrived_requests=1)

    def test_release_fraction(self):
        eager = SlackAccount(mu=2.0, service_cycles=4.0, num_buses=3,
                             saturating_buses=3, release_fraction=0.001)
        # A tiny fraction makes almost any projection trigger a release.
        assert eager.should_release({0: 1}, arrived_requests=2)

    def test_empty_pending_never_releases(self, account):
        assert not account.should_release({}, arrived_requests=0)


class TestValidation:
    def test_negative_mu(self):
        with pytest.raises(ConfigurationError):
            SlackAccount(mu=-1.0, service_cycles=4.0, num_buses=3,
                         saturating_buses=3)

    def test_zero_service(self):
        with pytest.raises(ConfigurationError):
            SlackAccount(mu=1.0, service_cycles=0.0, num_buses=3,
                         saturating_buses=3)

    def test_bad_fraction(self):
        with pytest.raises(ConfigurationError):
            SlackAccount(mu=1.0, service_cycles=4.0, num_buses=3,
                         saturating_buses=3, release_fraction=0.0)
