"""Modular arithmetic helpers on the 1-based residue system {1, ..., n}.

All public functions return representatives in [1, n] rather than the
usual [0, n-1], so a residue of 0 is reported as n.  Internal code is free
to work 0-based and convert at the boundary.
"""

from .errors import ParameterError

__all__ = ["mod1n", "residue_orbit"]


def mod1n(a: int, n: int) -> int:
    """Reduce ``a`` modulo ``n`` into the window [1, n].

    mod1n(0, 5) == 5, mod1n(13, 9) == 4, mod1n(-4, 11) == 7.
    """
    if n < 1:
        raise ParameterError(f"modulus must be a positive integer, got {n}")
    r = a % n
    return r if r else n


def residue_orbit(start: int, step: int, n: int) -> list[int]:
    """The n-term progression start, start+step, ... reduced into [1, n].

    When gcd(step, n) == 1 the orbit visits every residue exactly once;
    otherwise it cycles with period n // gcd(step, n).
    """
    if n < 1:
        raise ParameterError(f"modulus must be a positive integer, got {n}")
    return [mod1n(start + m * step, n) for m in range(n)]
