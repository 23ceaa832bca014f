"""Cross-commit wire pin.

Both differential harnesses compare a commit with *itself* (flag
combination against flag combination, lockstep fleet against
free-running fleet), so a change that shifts every path the same way is
invisible to them.  These digests were computed on the commit *before*
the change under test and are only ever edited by a diff that means to
change what the platform emits: they cover the Loc-RIBs, kernel tables
and node counters (``structural``), the decoded change streams and the
raw wire bytes in both directions of one default-flag scenario run.
"""

import hashlib

import pytest

from repro.conformance.differential import DifferentialHarness

PINNED_FIELDS = (
    "structural",
    "changes_to_experiment",
    "changes_to_upstream",
    "wire_to_experiment",
    "wire_to_upstream",
)

CHURN_DIGEST = (
    "98985340314933aa4081d33035197ec4f9f2bf70ed1ad237841c1ea018ce8411"
)
FULLTABLE_DIGEST = (
    "47be9c0116f6b1f1a0ae53c13e51e4b5eb2db48244b11f48a5da9cd4c3816de2"
)


def scenario_digest(harness: DifferentialHarness) -> str:
    result = harness._run_scenario()
    digest = hashlib.sha256()
    for name in PINNED_FIELDS:
        digest.update(getattr(result, name))
    return digest.hexdigest()


@pytest.mark.parametrize(
    "kwargs, pinned",
    [
        (dict(update_count=600, prefix_count=400), CHURN_DIGEST),
        (
            dict(update_count=120, prefix_count=600, workload="fulltable"),
            FULLTABLE_DIGEST,
        ),
    ],
    ids=["churn", "fulltable"],
)
def test_scenario_output_matches_parent_commit(kwargs, pinned):
    assert scenario_digest(DifferentialHarness(**kwargs)) == pinned
