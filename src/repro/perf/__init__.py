"""The wall-clock microbenchmark harness behind ``bgpbench perf``:
:mod:`repro.perf.workloads` (seeded inputs), :mod:`repro.perf.bench`
(the timed loops) and :mod:`repro.perf.gate` (the floor gate). A plain
consumer of the protocol stack — nothing under :mod:`repro.bgp`,
:mod:`repro.net` or :mod:`repro.forwarding` imports it.
"""
