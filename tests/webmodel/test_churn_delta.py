"""Delta-distribution churn: differential, monotonicity and metering.

``--distribution delta`` replaces the full-refresh filter shipment with
versioned ``repro.delta/v1`` updates. Because every delta decision lives
in the shared :class:`ChurnCohortState`, the columnar engine and the
scalar reference must stay full-result identical in delta mode for free
— and the whole point of the protocol, strictly fewer cumulative bytes
on the update channel than re-shipping full images, must hold at every
refresh interval.
"""

import dataclasses

import pytest

from repro import obs
from repro.errors import ConfigurationError
from repro.webmodel.churn import ChurnConfig
from repro.webmodel.churn_columnar import (
    ChurnCohortConfig,
    run_churn_cohort,
)
from repro.webmodel.churn_reference import run_churn_cohort_reference


#: The paper's cuckoo default plus the two history-independent families.
DELTA_FAMILIES = ["cuckoo", "counting-bloom", "quotient"]


def _cfg(distribution, refresh_every=2, steps=6, seed=11, **world_kw):
    world = ChurnConfig(
        steps=steps,
        seed=seed,
        payload_refresh_every=refresh_every,
        distribution=distribution,
        **world_kw,
    )
    return ChurnCohortConfig(
        world=world, num_clients=12, handshakes_per_client=2
    )


class TestConfigValidation:
    def test_unknown_distribution_rejected(self):
        with pytest.raises(ConfigurationError, match="distribution"):
            _cfg("gossip")


class TestDifferential:
    @pytest.mark.parametrize("filter_kind", DELTA_FAMILIES)
    @pytest.mark.parametrize("refresh_every", [1, 2, 4])
    def test_columnar_matches_scalar_in_delta_mode(
        self, refresh_every, filter_kind
    ):
        cfg = _cfg(
            "delta", refresh_every=refresh_every, filter_kind=filter_kind
        )
        assert run_churn_cohort(cfg) == run_churn_cohort_reference(cfg)

    def test_delta_changes_only_distribution_bytes(self):
        # The distribution knob must not perturb handshakes, retries,
        # events or wire bytes, only the update-channel accounting. That
        # holds on the default cuckoo family, whose advertised payloads
        # coincide in both modes. It is not a property of every family:
        # full mode re-plans capacity per capture while delta keeps the
        # publisher's grow-only capacity, so bloom, counting-bloom and
        # xor advertise payloads a few bytes apart and their wire bytes
        # differ.
        full = run_churn_cohort(_cfg("full"))
        delta = run_churn_cohort(_cfg("delta"))
        assert full.events == delta.events
        strip = lambda s: dataclasses.replace(s, distribution_bytes=0)
        assert [strip(s) for s in full.steps] == [
            strip(s) for s in delta.steps
        ]


class TestBytesOnWire:
    @pytest.mark.parametrize("filter_kind", DELTA_FAMILIES)
    @pytest.mark.parametrize("refresh_every", [1, 2, 4, 8])
    def test_delta_strictly_undercuts_full(self, refresh_every, filter_kind):
        full = run_churn_cohort(
            _cfg("full", refresh_every=refresh_every, filter_kind=filter_kind)
        )
        delta = run_churn_cohort(
            _cfg("delta", refresh_every=refresh_every, filter_kind=filter_kind)
        )
        assert 0 < delta.total_distribution_bytes
        assert delta.total_distribution_bytes < full.total_distribution_bytes

    def test_distribution_bytes_metered(self):
        with obs.scoped() as reg:
            result = run_churn_cohort(_cfg("delta"))
        assert (
            reg.counter("webmodel.churn.distribution_bytes")
            == result.total_distribution_bytes
        )
        assert reg.counter("amq.delta.publishes") > 0
        assert reg.counter("amq.delta.patches_applied") > 0

    def test_full_mode_pays_framed_image_per_refresh(self):
        from repro.amq.delta import delta_overhead_bytes

        result = run_churn_cohort(_cfg("full", refresh_every=1, steps=3))
        # Every client refreshes every epoch in full mode; each shipment
        # is at least the delta framing plus a non-empty image.
        for step in result.steps:
            assert step.distribution_bytes > delta_overhead_bytes() * 12
