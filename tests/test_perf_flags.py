"""The option census: ``perf.FLAGS`` has exactly these fields.

Every field is a configuration the differential matrix and the benches
must cover, so the set may only change in a diff that edits this list.
"""

import pytest

from repro import perf

SURVIVING_FLAGS = {"lpm_cache", "lpm_cache_size"}

# Deleted flags: their fast paths are the only path, and the bodies they
# switched to live under ``tests/`` as oracles.
DELETED_FLAGS = (
    "shards",
    "intern_attrs",
    "encode_memo",
    "fanout_batch",
    "rib_columnar",
    "incremental_bestpath",
    "encode_zero_copy",
    "stride_lpm",
)


def test_flag_census():
    assert set(perf.PerfFlags.__dataclass_fields__) == SURVIVING_FLAGS
    before = perf.FLAGS
    for name in DELETED_FLAGS:
        with pytest.raises(TypeError):
            perf.set_flags(**{name: False})
    assert perf.FLAGS is before
