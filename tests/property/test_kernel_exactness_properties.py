"""Property test: the array-timeline kernel is bit-exact on random traces.

``precise`` must equal the kernel-free ``precise-scalar`` oracle field
for field on any workload, not only on the hand-built cuts of
``tests/unit/test_precise_vectorized.py``. Transfers of 512 B to 32 KB
stream long enough to form long kernel windows, processor bursts cut
and share chips, and times drawn from a 1,000-cycle grid put arrivals,
DMA-TA epochs and whole streams on common instants, where tied wire
events pop in bus order.
"""

import dataclasses

from hypothesis import example, given, settings, strategies as st

from repro import simulate
from repro.traces.records import DMATransfer, ProcessorBurst
from repro.traces.trace import Trace
from tests.property.test_engine_equivalence_properties import CONFIG

times = st.one_of(
    st.floats(min_value=0.0, max_value=150_000.0),
    st.integers(min_value=0, max_value=150).map(lambda k: 1000.0 * k))

transfers = st.builds(
    DMATransfer,
    time=times,
    page=st.integers(min_value=0, max_value=63),
    size_bytes=st.sampled_from([512, 1024, 2048, 4096, 8192, 16384, 32768]),
    source=st.sampled_from(["network", "disk"]),
)

bursts = st.builds(
    ProcessorBurst,
    time=times,
    page=st.integers(min_value=0, max_value=63),
    count=st.integers(min_value=1, max_value=64),
)

runs = st.sampled_from([("baseline", None), ("dma-ta", 0.5),
                        ("dma-ta", 1.0), ("dma-ta", 2.0)])


def _fields(result):
    fields = dataclasses.asdict(result)
    counters = fields["metrics"]["counters"]
    for name in [n for n in counters if n.startswith("kernel.")]:
        del counters[name]
    return fields


@given(st.lists(st.one_of(transfers, bursts), min_size=1, max_size=14),
       runs)
@example(
    # Two streams start at one DMA-TA epoch on buses 0 and 1, so their
    # requests land at the same instants, and chip 3 serves them in
    # bus order after bus 0 hands off to a third transfer
    # (``tests/unit/test_kernel_chip_horizon.py``).
    records=[DMATransfer(time=19264.607081019658, page=41, size_bytes=512,
                         source="disk"),
             DMATransfer(time=48349.27369164601, page=43, size_bytes=32768,
                         source="network"),
             DMATransfer(time=59000.0, page=13, size_bytes=16384,
                         source="disk"),
             DMATransfer(time=72000.0, page=33, size_bytes=8192,
                         source="network"),
             DMATransfer(time=75540.84668650175, page=36, size_bytes=2048,
                         source="network")],
    run=("dma-ta", 2.0))
@settings(max_examples=25, deadline=None)
def test_kernel_matches_scalar_oracle(records, run):
    technique, mu = run
    trace = Trace(name="kernel-eq", records=list(records),
                  duration_cycles=250_000.0)
    vector = simulate(trace, config=CONFIG, technique=technique, mu=mu,
                      engine="precise")
    scalar = simulate(trace, config=CONFIG, technique=technique, mu=mu,
                      engine="precise-scalar")
    assert _fields(vector) == _fields(scalar)
