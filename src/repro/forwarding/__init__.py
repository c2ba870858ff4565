"""The data-plane substrate: longest-prefix-match engines, the FIB (on
the hash-per-length :class:`LengthSearchTable`), and an RFC 1812
forwarding pipeline.

The paper's cross-traffic experiments hinge on the router's forwarding
path (header checksum, TTL, FIB lookup) contending with BGP processing
for CPU; this package provides that path, functionally real and
instrumented.
"""

from repro.forwarding.classifier import (
    FlowKey,
    FlowRule,
    LinearClassifier,
    TupleSpaceClassifier,
)
from repro.forwarding.fib import Fib, FibStats
from repro.forwarding.lengthsearch import LengthSearchTable
from repro.forwarding.multibit import MultibitTable
from repro.forwarding.pipeline import ForwardAction, ForwardingPipeline, ForwardResult
from repro.forwarding.trie import BinaryTrie

__all__ = [
    "BinaryTrie",
    "Fib",
    "FibStats",
    "ForwardAction",
    "ForwardingPipeline",
    "ForwardResult",
    "FlowKey",
    "FlowRule",
    "LengthSearchTable",
    "LinearClassifier",
    "MultibitTable",
    "TupleSpaceClassifier",
]
