"""Run the inline usage examples embedded in the library docstrings, and
in the test-side helpers that keep one."""

from __future__ import annotations

import doctest

import pytest
import test_classical

from grothpoly import classical, divdiff, perms, poly, quantum


@pytest.mark.parametrize("module", [poly, perms, divdiff, classical, quantum, test_classical])
def test_module_doctests(module):
    result = doctest.testmod(module, verbose=False)
    assert result.attempted > 0, module.__name__
    assert result.failed == 0
