"""Command lists of the three workloads, made from the seed alone.

Each workload is a fixed list of `bundleaut` argv lists.  A run executes the
whole list a whole number of times (passes); the seed chooses formats,
genera and the order of the list, never how much of it runs.
"""

from __future__ import annotations

import random

import oracles

WORKLOADS = ("table-cold", "lookup-cold", "report-warm")
COLD = frozenset({"table-cold", "lookup-cold"})
FORMATS = ("text", "json", "latex")

# Turns --seconds into a whole number of passes (2, 3 and 8 at 20 s); the
# number of passes never depends on a clock reading.  A pass takes about
# 7-12 s, 8-12 s and 1.1-1.8 s on a shared 2-vCPU x86 machine (Python 3.11),
# so lookup-cold gets a third pass: its median latency falls among the
# rank-6 types, whose times move with the machine's speed from pass to pass.
NOMINAL_PASS_S = {"table-cold": 10.0, "lookup-cold": 6.5, "report-warm": 2.5}

# The reports a user types most often, as (family, rank, form token).
LOOKUP_REPORTS = {"E8": ("E", 8, "sc"), "E7_ad": ("E", 7, "adjoint"),
                  "D8:adjoint": ("D", 8, "adjoint")}


def passes(workload: str, seconds: int) -> int:
    return max(1, round(seconds / NOMINAL_PASS_S[workload]))


def commands(workload: str, seed: int) -> list[list[str]]:
    rng = random.Random(f"{workload}/{seed}")
    if workload == "table-cold":
        cmds = [["table", "--genus", "4", "--max-rank", "8", "--format", fmt]
                for fmt in FORMATS]
    elif workload == "lookup-cold":
        cmds = [["rootdata", "--type", f"{family}{n}",
                 "--format", rng.choice(("text", "json"))]
                for family, n in oracles.TYPES]
        cmds += [["report", "--group", spec] for spec in LOOKUP_REPORTS]
    elif workload == "report-warm":
        cmds = []
        for form in oracles.all_forms():
            for delta in form.labels():
                for fmt in FORMATS:
                    argv = ["report", "--group", form.spec,
                            "--genus", str(rng.randint(4, 10)), "--format", fmt]
                    if delta:
                        argv += ["--delta", ",".join(str(c) for c in delta)]
                    cmds.append(argv)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(cmds)
    return cmds
