"""Trace substrate: events, state intervals, trace containers, I/O, generators."""

from .builder import TraceBuilder, TraceBuildError, intervals_from_events
from .columns import TraceColumns
from .events import ENTER, LEAVE, POINT, Event, EventError, StateInterval
from .io import (
    TraceIOError,
    csv_size_bytes,
    read_csv,
    read_metadata,
    read_paje,
    write_csv,
    write_metadata,
    write_paje,
)
from .states import MPI_STATES, StateRegistry, StateRegistryError, mpi_state_registry
from .synthetic import (
    MONITORING_SCENARIOS,
    block_trace,
    figure3_hierarchy,
    figure3_proportions,
    figure3_trace,
    monitoring_scenario,
    phased_trace,
    random_trace,
    trace_from_proportions,
)
from .trace import Trace, TraceError, TraceStatistics

__all__ = [
    "Event",
    "StateInterval",
    "EventError",
    "ENTER",
    "LEAVE",
    "POINT",
    "StateRegistry",
    "StateRegistryError",
    "MPI_STATES",
    "mpi_state_registry",
    "Trace",
    "TraceColumns",
    "TraceError",
    "TraceStatistics",
    "TraceBuilder",
    "TraceBuildError",
    "intervals_from_events",
    "write_csv",
    "read_csv",
    "csv_size_bytes",
    "write_paje",
    "read_paje",
    "write_metadata",
    "read_metadata",
    "TraceIOError",
    "trace_from_proportions",
    "figure3_trace",
    "figure3_proportions",
    "figure3_hierarchy",
    "random_trace",
    "block_trace",
    "phased_trace",
    "MONITORING_SCENARIOS",
    "monitoring_scenario",
]
