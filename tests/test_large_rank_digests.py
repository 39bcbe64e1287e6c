"""Output digests beyond rank 8, where `snapshot.sha256` stops: the table up
to rank 50 and the report of every form of A79, B80, C80, D79 and D80, the
largest types of each family that `--group` takes.

Each command's json output is pinned by its sha256.  A change that should
not alter output leaves them as they are; after a deliberate output change,
print the new digests with

    PYTHONPATH=src python tests/test_large_rank_digests.py

and review the diff.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys

from bundleaut import cli
from bundleaut.groupclass import enumerate_forms
from bundleaut.rootdata import DynkinType

TYPES = ("A79", "B80", "C80", "D79", "D80")

DIGESTS = {
    "table --max-rank 50 --format json":
        "b78cc78bca9087c43c43d169b3b73d89b9ae4097846cb15eb468ee5ca09046af",
    "report --group SL_80 --format json":
        "757e09987dc3517f6554c049f23c7a2e5377c8e4618a35c2ade9445aebdf8755",
    "report --group SL_80/mu_2 --format json":
        "b405ef3742dbd54e1e01992f6cf942a245cbbbeb6c4a618fcfb5889beddb690f",
    "report --group SL_80/mu_4 --format json":
        "99f405e9d780de6595ad02a1cf9174c404c47d5dba9699d752ac88dca06030a8",
    "report --group SL_80/mu_5 --format json":
        "e63127cb0ad95892b5059ec1d02241a475e892eea7493a291f6d261d4086b2e7",
    "report --group SL_80/mu_8 --format json":
        "765c275edbe7f9a176117abd0ec11a863a445e07800792d1715f5542ba9de7f9",
    "report --group SL_80/mu_10 --format json":
        "eaee65b7e47fc25ab1f44fbc2546faee65c01b451b0f691bd8b1dffb740a905e",
    "report --group SL_80/mu_16 --format json":
        "1981585a4d4f03c94ece354f44a43f39315bbfd53cea7872b4bfe7716aae2ef0",
    "report --group SL_80/mu_20 --format json":
        "09f0ceae08098afbe482d4c5288e856bfa0fb1a17cfd77d2b48a4da02e8f578b",
    "report --group SL_80/mu_40 --format json":
        "fdd817eb2e112ea86429a624d610b41bc924811959bfbb1e280444d8a68f5be9",
    "report --group PSL_80 --format json":
        "e4ec189501892d5367840e126a529327ada487994227381e3115adfdbb2d9807",
    "report --group Spin_161 --format json":
        "e6307c67bcf47f5a7a13f0eca21da568daac2171012a0bcc9ac5135000d81607",
    "report --group SO_161 --format json":
        "ce2564952a9d1c3094aa40f5366ef9443ba0e3e9f354147b60c3908a9433767e",
    "report --group Sp_160 --format json":
        "7917307b7a253055b0824820d765f1dc0153a8cfa238b027fe843a7801477ed5",
    "report --group PSp_160 --format json":
        "67ad2bac9b6df7afe971b880b05faa9d66ecca8fda26dc953d16f7e137a50c25",
    "report --group Spin_158 --format json":
        "1cf274519bc4bf8ad4d76f87a47d5f5e9defae27657ac5c2b179838b4d2abb82",
    "report --group SO_158 --format json":
        "97f11ab3801e82d282477b258aef55dfbe523190dabb5a691f3ba12de85ad3aa",
    "report --group PSO_158 --format json":
        "dbc4ac2da838d5a79f13e8ea34ba22547a631d076f98146988d82a8a84254dac",
    "report --group Spin_160 --format json":
        "22dbc128bfa794e65f2e41ab1910ecb0a455168297e032f9f65528cf9c590c92",
    "report --group SemiSpin_160 --format json":
        "58259716ac2693202d13be54cb203ae6b7da4ee0b632a5c64adec09977cb19cb",
    "report --group SO_160 --format json":
        "fdbfc6cdee4923c645f7205e6865cff06b77749f4e8990c39b9b35db4ab2e833",
    "report --group PSO_160 --format json":
        "dcaf908ff57848e4e3bb036282a79bb0918a5a26a9a9925ff4e9a3edd07a4e97",
}


def commands() -> list[str]:
    """The table to rank 50, then each form's report, by type and form order."""
    return ["table --max-rank 50 --format json"] + [
        f"report --group {gf.display_name} --format json"
        for name in TYPES for gf in enumerate_forms(DynkinType.parse(name))]


def digest(command: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(command.split())
    assert code == 0, f"{command}: exit {code}"
    return hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


if __name__ == "__main__":  # before pytest is imported, so that it needs none
    for cmd in commands():
        print(f"    {cmd!r}:\n        {digest(cmd)!r},".replace("'", '"'))
    sys.exit(0)

import pytest  # noqa: E402  (after the script, which runs without it)


def test_command_list_names_every_form():
    assert commands() == list(DIGESTS)


@pytest.mark.parametrize("command", DIGESTS)
def test_output_digest_unchanged(command):
    assert digest(command) == DIGESTS[command]
