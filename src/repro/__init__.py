"""Reproduction of "Benchmarking BGP Routers" (Wu, Liao, Wolf, Gao —
IISWC 2007).

The package implements the paper's BGP control-plane benchmark end to
end: a from-scratch RFC 4271 BGP stack (:mod:`repro.bgp`), the FIB it
installs routes into (:mod:`repro.forwarding`), a discrete-event simulator
with multi-core CPU scheduling (:mod:`repro.sim`), models of the four
router architectures the paper evaluates (:mod:`repro.systems`),
workload generators (:mod:`repro.workload`), the eight benchmark
scenarios and measurement harness (:mod:`repro.benchmark`), and one
runner per paper table/figure (:mod:`repro.experiments`).

Quickstart::

    from repro.benchmark import run_scenario
    from repro.systems import build_system

    result = run_scenario(build_system("xeon"), scenario=6, table_size=5000)
    print(result.transactions_per_second)
"""

__version__ = "1.0.0"
