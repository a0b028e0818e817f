#!/usr/bin/env python3
"""Quickstart for the exact cover solver with colored secondary items.

Primary items must be covered exactly once.  Secondary items may be
covered any number of times as long as all covering options agree on the
color, or not at all; color 0 is an ordinary color.
"""

from kmsteiner.xcc import XCCProblem, export_text, import_text, solve_all

# items: primary A, B, C; secondary X; options as (primary ids, (secondary id, color) pairs)
p = XCCProblem(
    ["A", "B", "C"],
    ["X"],
    [
        ([0, 1], []),                   # A B
        ([2], [(0, 1)]),                # C X:1
        ([0], [(0, 1)]),                # A X:1
        ([1, 2], [(0, 2)]),             # B C X:2
        ([1], [(0, 2)]),                # B X:2
    ],
)

print("problem in text form:")
print(export_text(p))

sols, stats = solve_all(p)
print(f"{stats.solutions} solutions in {stats.nodes} nodes:")
for s in sols:
    print("  options", s.option_ids)
# {A B, C X:1} works; {A X:1, B X:2, ...} conflicts on X

round_tripped = import_text(export_text(p))
assert round_tripped == p
print("text round trip OK")
