"""Route policy: the filters and actions applied at import and export.

BGP route selection "is always policy-based" (paper §III.A); XORP ships
a dedicated ``xorp_policy`` process for this stage. The engine here is a
first-match rule chain: each rule has match conditions (AS-path and
community membership) and either rejects the route or applies attribute
modifications and accepts it. No condition reads the prefix, so a
verdict is a function of the attribute set alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum, auto

from repro.bgp.attributes import PathAttributes, intern_attributes

#: Distinct attribute sets one policy remembers verdicts for.
_MEMO_CAPACITY = 1 << 14


class PolicyResult(Enum):
    ACCEPT = auto()
    REJECT = auto()


@dataclass(frozen=True, slots=True)
class Match:
    """The conjunction of conditions a rule requires. Empty = match all."""

    as_in_path: int | None = None
    community: int | None = None

    def matches(self, attributes: PathAttributes) -> bool:
        if self.as_in_path is not None and not attributes.as_path.contains(self.as_in_path):
            return False
        if self.community is not None and self.community not in attributes.communities:
            return False
        return True


@dataclass(frozen=True, slots=True)
class Action:
    """Attribute modifications applied when a rule accepts a route."""

    set_local_pref: int | None = None
    add_community: int | None = None
    strip_communities: bool = False

    def apply(self, attributes: PathAttributes) -> PathAttributes:
        out = attributes
        if self.set_local_pref is not None:
            out = replace(out, local_pref=self.set_local_pref)
        if self.strip_communities:
            out = replace(out, communities=())
        if self.add_community is not None and self.add_community not in out.communities:
            out = replace(out, communities=out.communities + (self.add_community,))
        return out


@dataclass(frozen=True, slots=True)
class Rule:
    """One policy term: if the match holds, accept-with-actions or reject."""

    match: Match = field(default_factory=Match)
    result: PolicyResult = PolicyResult.ACCEPT
    action: Action = field(default_factory=Action)
    name: str = ""


class Policy:
    """An ordered first-match rule chain with a default disposition.

    ``evaluations`` counts rule-match attempts for the CPU cost model.
    Only its *deltas* around a call mean anything, so one instance may
    serve any number of peers and speakers.

    A chain is a pure function of the attribute set, so its verdicts are
    memoized per instance: attribute set → (interned result, rule-match
    attempts). A hit adds the stored attempts to ``evaluations`` — the
    cost model is charged exactly as if the chain had been walked.
    """

    def __init__(
        self,
        rules: "list[Rule] | tuple[Rule, ...]" = (),
        default: PolicyResult = PolicyResult.ACCEPT,
        name: str = "",
    ):
        self.rules = tuple(rules)
        self.default = default
        self.name = name
        self.evaluations = 0
        # An empty chain has nothing to save (and ACCEPT_ALL is a module
        # global, which must not accumulate state).
        self._memo: "dict[PathAttributes, tuple[PathAttributes | None, int]] | None" = (
            {} if self.rules else None
        )

    def apply(self, attributes: PathAttributes) -> PathAttributes | None:
        """Run the chain; return modified attributes, or None if rejected."""
        memo = self._memo
        if memo is not None:
            known = memo.get(attributes)
            if known is not None:
                self.evaluations += known[1]
                return known[0]
        result: PathAttributes | None
        attempts = 0
        for rule in self.rules:
            attempts += 1
            if rule.match.matches(attributes):
                result = (
                    None
                    if rule.result is PolicyResult.REJECT
                    else rule.action.apply(attributes)
                )
                break
        else:
            attempts += 1
            result = attributes if self.default is PolicyResult.ACCEPT else None
        self.evaluations += attempts
        if memo is not None and len(memo) < _MEMO_CAPACITY:
            if result is not None:
                result = intern_attributes(result)
            memo[attributes] = (result, attempts)
        return result


#: A policy that accepts everything unmodified — the benchmark default,
#: matching the paper's plain XORP/IOS configurations.
ACCEPT_ALL = Policy(name="accept-all")
