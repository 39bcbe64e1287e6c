"""Fault sweep: single-entry faults in `RootDatum.pairings`, run through
`weyl.orbit_counts`.

Each fault changes one entry <beta, alpha_i^vee> of one positive root beta
of A2, B2, G2, A3, B3, C3, A4 or D4: to each nonzero value in -3..3 other
than its own, or, where the entry is nonzero, drops it.  That makes 6
faults per entry, 1116 in all.  Each runs under a time bound of its own and
ends in one of five outcomes:

- `right`: the counts of the root datum without the fault;
- `check`: a `ConsistencyError`, on which the command line exits 3;
- `wrong`: other counts, and no check failed;
- `hang`: the time bound ran out;
- `error`: any other exception.

`fault_sweep.tally` holds one line per fault, `<outcome>  <fault>`.  The
test fails on a hang, on an error, on a fault that gives wrong counts where
the file records another outcome, and on any other difference from the
file: a change that closes faults rewrites it, and its diff shows which.
Regenerate it and review the diff:

    PYTHONPATH=src python tests/test_fault_sweep.py --write
"""

from __future__ import annotations

import signal
import sys
from pathlib import Path
from unittest import mock

from bundleaut import weyl
from bundleaut.rootdata import ConsistencyError, DynkinType, build_root_datum

TALLY = Path(__file__).resolve().parent / "fault_sweep.tally"
TYPES = ("A2", "B2", "G2", "A3", "B3", "C3", "A4", "D4")
VALUES = (-3, -2, -1, 1, 2, 3, None)  # None drops the entry
BOUND_S = 1.0  # per fault; a fault takes well under a millisecond


class Hang(Exception):
    """The time bound of a fault ran out."""


def pairing_faults():
    """(name, type, root datum with the fault) for each fault of the family."""
    for name in TYPES:
        t = DynkinType.parse(name)
        rd = build_root_datum(t)
        half = len(rd.roots) // 2
        for q, p in enumerate(rd.pairings):
            for i in range(t.rank):
                for value in VALUES:
                    if value == p.get(i):  # its own value, or the drop of an absent entry
                        continue
                    faulty = {j: c for j, c in p.items() if j != i}
                    if value is not None:
                        faulty[i] = value
                    pairings = rd.pairings[:q] + (faulty,) + rd.pairings[q + 1:]
                    yield (f"pairings {name} {rd.roots[half + q]} {i} {value or 'drop'}",
                           t, rd._replace(pairings=pairings))


def outcome(t: DynkinType, faulty) -> str:
    expected = weyl.orbit_counts(t)
    signal.setitimer(signal.ITIMER_REAL, BOUND_S)
    try:
        with mock.patch.object(weyl, "build_root_datum", lambda _: faulty):
            counts = weyl.orbit_counts.__wrapped__(t)  # past the cache
    except ConsistencyError:
        return "check"
    except Hang:
        return "hang"
    except Exception:
        return "error"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return "right" if counts == expected else "wrong"


def sweep() -> dict[str, str]:
    def alarm(signum, frame):
        raise Hang

    previous = signal.signal(signal.SIGALRM, alarm)
    try:
        return {fault: outcome(t, faulty) for fault, t, faulty in pairing_faults()}
    finally:
        signal.signal(signal.SIGALRM, previous)


def recorded() -> dict[str, str]:
    lines = TALLY.read_text(encoding="utf-8").splitlines()
    return {fault: result for result, fault in (line.split("  ", 1) for line in lines)}


def test_pairing_faults_end_in_a_check_or_the_recorded_outcome():
    got, expected = sweep(), recorded()
    assert len(got) == 1116
    assert [f for f, result in got.items() if result in ("hang", "error")] == []
    assert [f for f, result in got.items()
            if result == "wrong" and expected.get(f) != "wrong"] == []
    assert got == expected, "rewrite fault_sweep.tally and review its diff"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    TALLY.write_text("".join(f"{result}  {fault}\n" for fault, result in sweep().items()),
                     encoding="utf-8")
