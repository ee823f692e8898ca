"""The ``>>>`` examples in the module docstrings run as tests."""

import doctest

import pytest

from torusjones import laurent, qtorus


@pytest.mark.parametrize("module", [laurent, qtorus], ids=lambda m: m.__name__)
def test_docstring_examples(module):
    failed, attempted = doctest.testmod(module)
    assert attempted > 0
    assert failed == 0
