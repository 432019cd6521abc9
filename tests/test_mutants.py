"""tests/mutants.py stays applicable: each mutant's old text is found exactly
once in its file, so moving that text fails here and not only in the sweep."""

import pytest

from mutants import MUTANTS, _stale


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_every_mutant_old_text_is_found_once(mutant):
    assert not _stale(mutant), f"{mutant.old!r} is not found exactly once in {mutant.file}"
