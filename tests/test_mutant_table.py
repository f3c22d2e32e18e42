"""The mutation gate's table is not stale: every mutant's text is in its file exactly once."""

from mutants import stale_mutants


def test_every_mutant_text_occurs_once():
    assert stale_mutants() == []
