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


def mix64(x: int) -> int:
    """splitmix64's finalizer, a bijection on 64-bit words; ``x`` is
    taken modulo 2**64."""
    x = x & MASK64
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & MASK64
    x = (x ^ (x >> 27)) * 0x94D049BB133111EB & MASK64
    return x ^ (x >> 31)


#: splitmix64's shifts and multipliers, in :func:`mix64`'s order.
_STEPS = (30, 0xBF58476D1CE4E5B9, 27, 0x94D049BB133111EB, 31)
#: ``_STEPS`` as scalars of an array's own word type, by dtype: a Python
#: int operand costs numpy a conversion at every operation.
_typed_steps = {}


def mix64_inplace(words):
    """:func:`mix64` of every word of a numpy ``uint64`` array, written
    over it (the array wraps where the masks cut: the same words);
    returns the array.  The caller imports numpy, this module does not."""
    steps = _typed_steps.get(words.dtype)
    if steps is None:
        steps = _typed_steps[words.dtype] = tuple(
            map(words.dtype.type, _STEPS))
    shift1, times1, shift2, times2, shift3 = steps
    words ^= words >> shift1
    words *= times1
    words ^= words >> shift2
    words *= times2
    words ^= words >> shift3
    return words
