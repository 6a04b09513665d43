"""Every mutant that ``scripts/mutants.py`` lists still applies to ``src``.

The full run, which applies each mutant to a copy of ``src`` and runs its
tests, is a script; this only checks that each old text occurs exactly once
in its file, so that a change to the code that guards a mutant's line has to
update or retire the mutant.
"""

import runpy
from pathlib import Path

import pytest

MUTANTS = runpy.run_path(str(Path(__file__).resolve().parent.parent / "scripts" / "mutants.py"),
                         run_name="mutants")


@pytest.mark.parametrize("mutant", MUTANTS["MUTANTS"], ids=lambda m: m.name)
def test_a_listed_mutant_still_applies(mutant):
    assert not MUTANTS["stale"](mutant)
