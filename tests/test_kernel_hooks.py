"""The names the benchmark's tracer patches and the backend it stamps."""

from __future__ import annotations

import pytest

import crossnest
from crossnest import _kernel, _purekern


@pytest.mark.parametrize(
    "name", ["iter_fillings", "contains", "count_avoiders", "conjugate"]
)
def test_kernel_reexports_pure_kernel(name):
    assert getattr(_kernel, name) is getattr(_purekern, name)


def test_active_backend_is_pure_python():
    assert crossnest.active_backend() == "pure-python"
