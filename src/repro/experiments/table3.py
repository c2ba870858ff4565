"""Table III: BGP performance without cross-traffic, transactions/s.

Runs every scenario on every platform with no forwarding load and
renders the measured table next to the paper's, plus the qualitative
checks the paper draws from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.benchmark import run_scenario
from repro.benchmark.report import format_table
from repro.experiments.paperdata import PAPER_TABLE3, PLATFORM_LABELS, PLATFORM_ORDER
from repro.systems import build_system


@dataclass(slots=True)
class Table3Result:
    """Measured transactions/s: {platform: {scenario: tps}}."""

    table_size: int
    measured: dict[str, dict[int, float]] = field(default_factory=dict)

    def winner(self, scenario: int) -> str:
        return max(self.measured, key=lambda platform: self.measured[platform][scenario])

    def checks(self) -> dict[str, bool]:
        """The paper's qualitative observations, evaluated on the
        measured numbers."""
        m = self.measured
        return {
            "dual-core wins except scenarios 2, 4, 8": all(
                (self.winner(s) == "cisco") == (s in (2, 4, 8)) for s in range(1, 9)
            ) and all(self.winner(s) == "xeon" for s in (1, 3, 5, 6, 7)),
            "~order of magnitude xeon over pentium3": all(
                m["xeon"][s] / m["pentium3"][s] >= 3.0 for s in range(1, 9)
            ),
            "~order of magnitude pentium3 over ixp2400": all(
                m["pentium3"][s] / m["ixp2400"][s] >= 3.0 for s in range(1, 9)
            ),
            "no-FIB-change scenarios faster (5>1, 6>2 per platform)": all(
                m[p][5] > m[p][1] and m[p][6] > m[p][2]
                for p in ("pentium3", "xeon", "ixp2400")
            ),
            "large packets faster than small (XORP platforms)": all(
                m[p][2] > m[p][1] and m[p][6] > m[p][5]
                for p in ("pentium3", "xeon", "ixp2400")
            ),
            "replacement scenarios slowest (7<1, 8<2)": all(
                m[p][7] < m[p][1] and m[p][8] < m[p][2]
                for p in ("pentium3", "xeon", "ixp2400")
            ),
            "cisco worse than ixp2400 on small packets (scenarios 1,3,5)": all(
                m["cisco"][s] < m["ixp2400"][s] for s in (1, 3, 5)
            ),
        }


def run_table3(table_size: int = 2000, seed: int = 42) -> Table3Result:
    """Run the full 8 × 4 grid."""
    result = Table3Result(table_size=table_size)
    for platform in PLATFORM_ORDER:
        row: dict[int, float] = {}
        for scenario in range(1, 9):
            outcome = run_scenario(
                build_system(platform), scenario, table_size=table_size, seed=seed
            )
            row[scenario] = outcome.transactions_per_second
        result.measured[platform] = row
    return result


def render(result: Table3Result) -> str:
    """Text rendering: measured | paper for every cell."""
    columns = [PLATFORM_LABELS[p] for p in PLATFORM_ORDER]
    rows = []
    for scenario in range(1, 9):
        values = [
            f"{result.measured[p][scenario]:.1f}/{PAPER_TABLE3[p][scenario]:.0f}"
            for p in PLATFORM_ORDER
        ]
        rows.append((f"Scenario {scenario}", values))
    body = format_table(
        f"Table III reproduction (measured/paper, transactions per second, "
        f"table size {result.table_size})",
        columns,
        rows,
        value_format="{:>10}",
    )
    checks = "\n".join(
        f"  [{'ok' if passed else 'FAIL'}] {claim}"
        for claim, passed in result.checks().items()
    )
    return f"{body}\nQualitative checks:\n{checks}"


def main(table_size: int = 2000) -> str:
    text = render(run_table3(table_size))
    print(text)
    return text


if __name__ == "__main__":
    main()
