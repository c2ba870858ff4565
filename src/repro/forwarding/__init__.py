"""The forwarding table: the FIB, one ``{prefix: next_hop}`` dict.

The BGP speaker pushes every Loc-RIB change here as a FIB add, replace
or delete — the install cost the paper's scenarios 5–8 turn on. No
packet is forwarded through it (cross-traffic is fluid CPU demand), so
its longest-prefix-match lookup is a plain probe per prefix length.
"""

from repro.forwarding.fib import Fib

__all__ = ["Fib"]
