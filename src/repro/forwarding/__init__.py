"""The forwarding table: longest-prefix-match engines and the FIB (on
the hash-per-length :class:`LengthSearchTable`).

The BGP speaker pushes every Loc-RIB change here as a FIB add, replace
or delete — the install cost the paper's scenarios 5–8 turn on. The
binary trie and multibit engines are the survey's comparison points
(paper ref. [9]), held equivalent by property tests.
"""

from repro.forwarding.fib import Fib, FibStats
from repro.forwarding.lengthsearch import LengthSearchTable
from repro.forwarding.multibit import MultibitTable
from repro.forwarding.trie import BinaryTrie

__all__ = [
    "BinaryTrie",
    "Fib",
    "FibStats",
    "LengthSearchTable",
    "MultibitTable",
]
