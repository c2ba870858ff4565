#!/usr/bin/env python3
"""Regenerate every table and figure of the paper in one run.

Equivalent to ``bgpbench all``; prints Table III and the Figure 3-6
summaries side by side with the paper's reported values.

Run:  python examples/reproduce_paper.py [table_size]
"""

import sys

from repro.experiments.runner import main

if __name__ == "__main__":
    table_size = sys.argv[1] if len(sys.argv) > 1 else "2000"
    sys.exit(main(["all", "--table-size", table_size]))
