"""The mutant registry of ``mutants.py`` stays current: each record's old
text occurs exactly once in its file, so a later change that moves the code
fails here rather than leaving a mutant that no longer applies. Replaying
the mutants is ``python tests/mutants.py``."""

import os

import pytest

import mutants


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_old_text_occurs_once(mutant):
    with open(os.path.join(mutants.ROOT, mutant.file), encoding="utf-8") as fh:
        assert fh.read().count(mutant.old) == 1
    assert mutant.new != mutant.old
    assert mutant.catchers
    for name in mutant.catchers:
        assert os.path.isfile(os.path.join(mutants.ROOT, "tests", name)), name


def test_names_are_unique():
    names = [m.name for m in mutants.MUTANTS]
    assert len(set(names)) == len(names)
