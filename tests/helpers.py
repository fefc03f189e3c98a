"""Oracles shared by several test modules."""


def is_antisymmetric(mu) -> bool:
    """Swapping the two inputs of the binary operation mu negates every entry."""
    assert mu.degree == 2
    return all(i != j and mu.entry((j, i), k) == -value
               for (i, j, k), value in mu.entries.items())
