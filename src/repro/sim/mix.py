"""The package's one stateless integer hash.

A value that must be a pure function of a few integers — a link's
shadowing draw, a frame's modelled MIC, a trace's keep/skip decision —
comes from :func:`mix64`: never from the builtin ``hash`` (its tuple
algorithm is the interpreter's, not the run's) and never from generator
state (which would make it depend on evaluation order).
"""

MASK64 = 0xFFFFFFFFFFFFFFFF
#: splitmix64's increment: ``mix64(k + GOLDEN)``, ``mix64(k + 2 * GOLDEN)``,
#: … are independent draws from the state ``k``.
GOLDEN = 0x9E3779B97F4A7C15


def mix64(x):
    """splitmix64's finalizer, a bijection on 64-bit words.  ``x`` is an
    ``int`` (taken modulo 2**64) or a numpy ``uint64`` array; both give
    the same words (an array wraps where the masks cut)."""
    x = x & MASK64
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & MASK64
    x = (x ^ (x >> 27)) * 0x94D049BB133111EB & MASK64
    return x ^ (x >> 31)
