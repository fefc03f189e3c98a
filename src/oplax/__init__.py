"""oplax: exact symbolic verification of the harmonic oscillator's operadic
Lax dynamics, the deformed three-dimensional Lie algebra tables, and the
Jacobi operators of their quantum counterparts."""
