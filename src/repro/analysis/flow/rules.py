"""The whole-program rule catalogue (RPR101…RPR104).

These rules need the project-wide :class:`~repro.analysis.flow.
callgraph.ProjectGraph`, so they live outside the per-module registry
of :mod:`repro.analysis.rules`; the descriptors here feed ``bgpbench
lint --list-rules``, the SARIF exporter, and the docs table. Findings
reuse the ordinary :class:`~repro.analysis.rules.Finding` type, so
``# repro: noqa[RPR10x]`` suppression and report rendering work
unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class FlowRule:
    """Descriptor of one whole-program rule."""

    rule_id: str
    title: str
    severity: str
    rationale: str


FLOW_RULES: dict[str, FlowRule] = {
    rule.rule_id: rule
    for rule in (
        FlowRule(
            "RPR101",
            "nondeterministic source reaches a determinism sink",
            "error",
            "A wall-clock/entropy/env read — possibly laundered through "
            "any number of helper calls — flows into event scheduling, "
            "hashing, or spec/result canonicalisation. Unlike RPR001-003 "
            "this is interprocedural and flow-sensitive: the taint "
            "follows call edges and local assignments. Annotate an "
            "intentional ambient read with # repro: noqa[RPR001] at the "
            "source site (as grid supervision does) to declare it never "
            "feeds back into results.",
        ),
        FlowRule(
            "RPR102",
            "module global mutated on a worker process path",
            "error",
            "A module-level mutable binding is written by a function "
            "reachable from a process-boundary entry point (grid "
            "run_cell / supervisor _worker_main / run_topo_cell / "
            "parallel _shard_main). Each worker process gets its own "
            "copy, so the state silently diverges across shards the "
            "moment the parallel engine (ROADMAP item 2) splits one "
            "scenario over processes. Either keep the global a "
            "content-keyed memo of a pure function (document the "
            "contract and suppress at the mutation site), or thread the "
            "state through the cell.",
        ),
        FlowRule(
            "RPR103",
            "cache keyed on identity or iteration order",
            "error",
            "A module-level cache is indexed with id(...), hash(...), or "
            "an iter(...)/next(...)-derived key. id() changes every "
            "process and allocation; hash() of str/bytes is salted per "
            "process (PYTHONHASHSEED); iteration-order keys inherit set "
            "ordering. Any of them makes the cache content differ "
            "between a serial run and a sharded one. Key caches on the "
            "content itself (the wire blob, the spec JSON).",
        ),
        FlowRule(
            "RPR104",
            "unpicklable state crossing a process boundary",
            "error",
            "A lambda, nested function, or generator is passed as a "
            "multiprocessing Process target or sent over a Pipe/Queue. "
            "Under the spawn start method these fail to pickle at "
            "runtime — but only on the platforms that spawn, which is "
            "how fork-only bugs ship. Pass top-level functions and "
            "plain data across process boundaries.",
        ),
    )
}


def flow_rule_ids() -> list[str]:
    return sorted(FLOW_RULES)
