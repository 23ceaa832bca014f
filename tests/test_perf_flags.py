"""The option census: ``perf.FLAGS`` has exactly these fields.

Every field is a configuration the differential matrix and the benches
must cover, so the set may only change in a diff that edits this list.
"""

import pytest

from repro import perf

SURVIVING_FLAGS = {
    "stride_lpm",
    "lpm_cache",
    "lpm_cache_size",
    "encode_memo",
    "fanout_batch",
    "rib_columnar",
    "incremental_bestpath",
    "encode_zero_copy",
}


def test_flag_census():
    assert set(perf.PerfFlags.__dataclass_fields__) == SURVIVING_FLAGS
    before = perf.FLAGS
    with pytest.raises(TypeError):
        perf.set_flags(shards=2)
    # Deleted with the intern pools: the decoder's attribute flyweight
    # shares decoded values unconditionally.
    with pytest.raises(TypeError):
        perf.set_flags(intern_attrs=False)
    assert perf.FLAGS is before
