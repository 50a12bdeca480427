"""The kernels, as every other module calls them.

The kernels live in ``_purekern``.  Other modules call them through this
module's names, so a tracer that patches these names and ``_purekern``'s
own sees every call, including the kernels' calls to each other.
"""

from ._purekern import (
    contains,
    count_avoiders,
    count_by_row_sums,
    disagreeing_supports,
    iter_fillings,
    longest_chain,
)


def active_backend() -> str:
    """Name of the kernel implementation, stamped on benchmark reports."""
    return "pure-python"
