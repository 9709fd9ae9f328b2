"""Message typing and size accounting.

Messages are ordinary (small) Python objects — tuples of primitives in all
shipped algorithms.  The paper notes that all presented algorithms can be
implemented with ``poly log n`` bits per message; :func:`estimate_bits`
provides the size estimate that experiment E12 uses to verify this for the
implementations (colour values, random numbers, desire levels, marks).

:func:`estimate_bits` runs once per composed message, and a ``Concat``
bundle nests ``T1`` sub-messages, so it dispatches on the *exact* type
first: ``int``, ``str``, ``float``, ``bool``, ``None`` and the plain
containers are costed without an ``isinstance`` chain, and container leaves
of those types are costed inline.  Subclasses (``IntEnum`` members, numpy
scalars that subclass ``float``, ``str`` subclasses, namedtuples,
``OrderedDict``) and exotic payloads take the general ``isinstance`` rule
below it, which charges the same sizes.
"""

from __future__ import annotations

from itertools import chain
from typing import Any, Hashable

__all__ = ["Message", "estimate_bits"]

#: Anything hashable and small; ``None`` means "no message" (the node stays
#: silent this round — its neighbours still learn of its presence, which the
#: model allows since communication is by local broadcast).
Message = Hashable

#: Number of bits assumed for a floating-point payload (a double).
_FLOAT_BITS = 64
#: Per-character cost of a string payload.
_CHAR_BITS = 8
#: Structural overhead charged per container element (length/terminator).
_CONTAINER_OVERHEAD = 2


def estimate_bits(message: Any) -> int:
    """Estimate the number of bits needed to encode ``message``.

    The estimate is intentionally simple and conservative: integers cost
    their binary length (+1 sign bit), floats 64 bits, booleans and ``None``
    1 bit, strings 8 bits per character, and containers the sum of their
    elements (a dict: its keys and values) plus a small structural overhead.
    Anything else is charged 8 bits per character of its ``repr``.  The
    absolute constants do not matter for experiment E12 — only the growth
    with ``n`` does.
    """
    kind = type(message)
    if kind is tuple or kind is list or kind is set or kind is frozenset:
        items = message
    elif kind is dict:
        items = chain(message, message.values())
    elif kind is int:
        return (message.bit_length() or 1) + 1
    elif kind is str:
        return _CHAR_BITS * (len(message) or 1)
    elif message is None or kind is bool:
        return 1
    elif kind is float:
        return _FLOAT_BITS
    # The general rule, for subclasses and exotic payloads.
    elif isinstance(message, int):
        return max(1, int(message).bit_length()) + 1
    elif isinstance(message, float):
        return _FLOAT_BITS
    elif isinstance(message, str):
        return _CHAR_BITS * max(1, len(message))
    elif isinstance(message, (tuple, list, set, frozenset)):
        items = message
    elif isinstance(message, dict):
        items = chain.from_iterable(message.items())
    else:
        return _CHAR_BITS * max(1, len(repr(message)))

    total = _CONTAINER_OVERHEAD
    for item in items:
        item_kind = type(item)
        if item_kind is int:
            total += (item.bit_length() or 1) + 1
        elif item_kind is str:
            total += _CHAR_BITS * (len(item) or 1)
        elif item is None or item_kind is bool:
            total += 1
        elif item_kind is float:
            total += _FLOAT_BITS
        else:
            total += estimate_bits(item)
    return total
