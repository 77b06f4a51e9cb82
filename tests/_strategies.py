"""Shared hypothesis strategies."""

from hypothesis import strategies as st

from dyckab.paths import DyckPath


@st.composite
def dyck_paths(draw, max_n=9, min_n=1):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    x = []
    prev = 0
    for r in range(1, n + 1):
        prev = draw(st.integers(min_value=prev, max_value=r - 1))
        x.append(prev)
    return DyckPath.from_row_starts(x)
