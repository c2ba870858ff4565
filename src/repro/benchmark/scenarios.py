"""The eight benchmark scenarios (paper Table I).

============  ========== ========== ==========================
Scenario      Operation  Type       FIB changes / packet size
============  ========== ========== ==========================
1, 2          Start-up   ANNOUNCE   yes — small / large
3, 4          Ending     WITHDRAW   yes — small / large
5, 6          Increment  ANNOUNCE   no (longer path) — small / large
7, 8          Increment  ANNOUNCE   yes (shorter path) — small / large
============  ========== ========== ==========================

Small packets carry one prefix per UPDATE; large packets carry 500.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Large-packet UPDATE size (paper §III.D).
LARGE = 500


@dataclass(frozen=True, slots=True)
class Scenario:
    """One row of Table I."""

    number: int
    operation: str        # "start-up" | "ending" | "incremental"
    update_type: str      # "ANNOUNCE" | "WITHDRAW"
    fib_changes: bool
    prefixes_per_update: int
    description: str

    @property
    def packet_size(self) -> str:
        return "small" if self.prefixes_per_update == 1 else "large"

    @property
    def measured_phase(self) -> int:
        """Which benchmark phase the metric is computed over (Fig. 1)."""
        return 1 if self.operation == "start-up" else 3

    @property
    def uses_second_speaker(self) -> bool:
        """Scenarios 5–8 need Speaker 2 connected (and Phase 2 run)."""
        return self.operation == "incremental"

    @property
    def path_extra_hops(self) -> int:
        """AS-path variation of the Phase-3 announcements relative to
        Speaker 1's baseline: +2 hops (no FIB change) or -2 (replace)."""
        if self.operation != "incremental":
            return 0
        return -2 if self.fib_changes else 2


SCENARIOS: dict[int, Scenario] = {
    1: Scenario(1, "start-up", "ANNOUNCE", True, 1,
                "Table load, small packets: Loc-RIB + FIB install speed"),
    2: Scenario(2, "start-up", "ANNOUNCE", True, LARGE,
                "Table load, large packets: Loc-RIB + FIB install speed"),
    3: Scenario(3, "ending", "WITHDRAW", True, 1,
                "Withdraw every prefix, small packets"),
    4: Scenario(4, "ending", "WITHDRAW", True, LARGE,
                "Withdraw every prefix, large packets"),
    5: Scenario(5, "incremental", "ANNOUNCE", False, 1,
                "Longer-path re-announcements, small packets: no FIB change"),
    6: Scenario(6, "incremental", "ANNOUNCE", False, LARGE,
                "Longer-path re-announcements, large packets: no FIB change"),
    7: Scenario(7, "incremental", "ANNOUNCE", True, 1,
                "Shorter-path announcements, small packets: FIB replace"),
    8: Scenario(8, "incremental", "ANNOUNCE", True, LARGE,
                "Shorter-path announcements, large packets: FIB replace"),
}


def get_scenario(scenario: "int | Scenario") -> Scenario:
    if isinstance(scenario, Scenario):
        return scenario
    try:
        return SCENARIOS[scenario]
    except KeyError:
        raise KeyError(f"no scenario {scenario}; valid: 1-8") from None


def render_table1() -> str:
    """Render the scenario definitions in the paper's Table I layout."""
    lines = [
        "Table I: BGP benchmark scenarios",
        "-" * 78,
        f"{'Scenario':>9} {'Operation':<12} {'Type':<9} {'FIB changes':<12} "
        f"{'Packet size':<12} Description",
        "-" * 78,
    ]
    for number in sorted(SCENARIOS):
        scenario = SCENARIOS[number]
        lines.append(
            f"{number:>9} {scenario.operation:<12} {scenario.update_type:<9} "
            f"{'yes' if scenario.fib_changes else 'no':<12} "
            f"{scenario.packet_size:<12} {scenario.description}"
        )
    lines.append("-" * 78)
    return "\n".join(lines)
