"""Shared pytest configuration.

``--hypothesis-profile=chaos`` (``make test-chaos``) runs the gateway
state machine in ``test_serving_state_machine.py`` with a longer,
randomized search than the fixed tier-1 one.  Profiles must exist before
the Hypothesis plugin loads the requested one, hence here.
"""

from hypothesis import HealthCheck, settings

settings.register_profile(
    "chaos", max_examples=150, stateful_step_count=20, deadline=None,
    suppress_health_check=list(HealthCheck))
