"""Tables II and III: the simulated system configuration and FIT rates."""

from __future__ import annotations

from repro.experiments import UNSCALED
from repro.experiments.reporting import format_table, print_banner
from repro.faultsim.fit import FAULT_MODES, total_fit

#: Both tables are inputs, packaged verbatim: nothing to size or check.
SCALES = UNSCALED
CLAIMS = {}

TABLE2_ROWS = [
    ("Core", "6-wide OoO (ROB-limited model), 224-entry ROB, 3.2GHz, 4 cores"),
    ("L1 Cache", "Private 32KB d-cache, 2-cycle, 64B line, 4-way"),
    ("Last Level Cache", "Shared 4MB, 64B line, 16-way, 18-cycle, write-back, inclusive"),
    ("Prefetcher", "Stream prefetcher"),
    ("Main Memory", "16GB DDR4-3200 @1600MHz, 1 channel, 2 ranks x 16 banks, 8KB row buffer, 64R/64W queues"),
    ("MAC latency", "8 processor cycles (4 memory-controller cycles)"),
]


def report_table2() -> str:
    print_banner("Table II: configuration parameters")
    table = format_table(["Component", "Configuration"], TABLE2_ROWS)
    print(table)
    return table


def report_table3() -> str:
    print_banner("Table III: FIT per device (Sridharan & Liberty [43])")
    rows = [
        (m.scope.value, m.transient_fit, m.permanent_fit, m.total_fit)
        for m in FAULT_MODES
    ]
    rows.append(("TOTAL", sum(m.transient_fit for m in FAULT_MODES),
                 sum(m.permanent_fit for m in FAULT_MODES), total_fit()))
    table = format_table(["Failure mode", "Transient", "Permanent", "Total"], rows)
    print(table)
    return table
