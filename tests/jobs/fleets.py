"""The two shipped implementations of the fleet surface, as ``workers=``
values: pool-level tests that assert on journal content, statuses or retries
run their body once per fleet — one protocol, two fleets."""

#: ``workers=0`` selects :class:`repro.jobs.warm.InlineFleet`, anything else
#: :class:`repro.jobs.warm.WarmFleet` with that many daemons
FLEETS = (0, 2)
