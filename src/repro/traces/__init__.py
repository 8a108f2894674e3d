"""Trace data model, I/O, generators, and characterisation.

A trace is the input of every simulation: a time-sorted stream of DMA
transfer records and processor-access bursts against *logical* pages, plus
the client-request table used to evaluate client-perceived response times
(the CP-Limit of Section 5). Real-system traces are substituted by
calibrated generators (see DESIGN.md section 2): :mod:`repro.traces.oltp`
produces OLTP-St / OLTP-Db equivalents through the full server models, and
:mod:`repro.traces.synthetic` produces the Zipf+Poisson Synthetic-St /
Synthetic-Db traces exactly as Section 5.1 describes them.
"""

from repro.traces.records import ClientRequest, DMATransfer, ProcessorBurst
from repro.traces.trace import Trace
from repro.traces.io import read_trace, write_trace
from repro.traces.synthetic import synthetic_storage_trace, synthetic_database_trace
from repro.traces.oltp import oltp_storage_trace, oltp_database_trace
from repro.traces.stats import TraceStats, characterize, popularity_cdf
from repro.traces.replay import (
    BlockIO,
    DIALECTS,
    ReplayConfig,
    read_block_csv,
    replay_trace,
    sample_window,
)
from repro.traces.zoo import (
    ZOO,
    drift_diurnal_trace,
    flash_crowd_trace,
    kv_store_trace,
    ml_inference_trace,
    video_stream_trace,
)
from repro.traces.transform import (
    merge_traces,
    renumber_clients,
    resize_transfers,
)

__all__ = [
    "BlockIO",
    "DIALECTS",
    "ReplayConfig",
    "ZOO",
    "read_block_csv",
    "replay_trace",
    "sample_window",
    "drift_diurnal_trace",
    "flash_crowd_trace",
    "kv_store_trace",
    "ml_inference_trace",
    "video_stream_trace",
    "merge_traces",
    "renumber_clients",
    "resize_transfers",
    "ClientRequest",
    "DMATransfer",
    "ProcessorBurst",
    "Trace",
    "read_trace",
    "write_trace",
    "synthetic_storage_trace",
    "synthetic_database_trace",
    "oltp_storage_trace",
    "oltp_database_trace",
    "TraceStats",
    "characterize",
    "popularity_cdf",
]
