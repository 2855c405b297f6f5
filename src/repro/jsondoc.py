"""The one writer of saved documents: key-sorted JSON indented by two spaces.

The document format is what ``json.dumps`` writes with ``sort_keys=True`` and
an indent of two spaces, but on CPython before 3.14 any ``indent`` sends
:mod:`json` to its pure-Python encoder, and a frontier document is hundreds of
kilobytes.  :func:`dumps` returns the same bytes with most of the work done by
the C encoder: a container whose values are all scalars or empty containers is
one C call whose item separator carries the newline and indent of its depth,
and only the containers above those are walked here.  An encoded string never
holds a raw newline, so the separators cannot be confused with content.
"""

from __future__ import annotations

import functools
import json
import json.encoder
from typing import Any, Callable, List, Set

_INDENT = "  "
_SCALARS = (str, int, float, type(None))
_CONTAINERS = (dict, list, tuple)
#: Exact types that :func:`_flat` accepts, tested first because a set lookup is
#: cheaper than its ``isinstance`` calls.
_SCALAR_TYPES = frozenset({str, int, float, bool, type(None)})


def _default(obj: Any) -> Any:
    raise TypeError(f"Object of type {obj.__class__.__name__} is not JSON serializable")


@functools.lru_cache(maxsize=None)  # keyed by nesting depth, bounded by the recursion limit
def _encoder(depth: int) -> Callable[[Any, int], Any]:
    """The C encoder of a container whose items sit at ``depth + 1``."""
    # ``c_make_encoder`` is json's C accelerator; the type stubs do not declare it.
    return getattr(json.encoder, "c_make_encoder")(
        None,  # no cycle markers: such a container holds no container with items
        _default,
        json.encoder.encode_basestring_ascii,
        None,  # indent: the item separator carries it
        ": ",
        ",\n" + _INDENT * (depth + 1),
        True,  # sort_keys
        False,  # skipkeys
        True,  # allow_nan
    )


def _flat(value: Any) -> bool:
    return isinstance(value, _SCALARS) or (isinstance(value, _CONTAINERS) and not value)


def _key(key: Any) -> str:
    """A dict key as the stdlib writes it: strings as they are, numbers, bools
    and ``None`` as their JSON text."""
    if isinstance(key, str):
        return key
    if key is None or isinstance(key, (int, float)):
        return "".join(_encoder(0)(key, 0))
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


def _write(obj: Any, depth: int, out: List[str], active: Set[int]) -> None:
    if isinstance(obj, dict):
        opener, closer, values = "{", "}", obj.values()
    elif isinstance(obj, (list, tuple)):
        opener, closer, values = "[", "]", obj
    else:
        out.append("".join(_encoder(depth)(obj, 0)))
        return
    if not obj:
        out.append(opener + closer)
        return
    inner = "\n" + _INDENT * (depth + 1)
    outer = "\n" + _INDENT * depth
    for value in values:
        if type(value) not in _SCALAR_TYPES and not _flat(value):
            break
    else:
        text = "".join(_encoder(depth)(obj, 0))
        out.append(opener + inner + text[1:-1] + outer + closer)
        return
    if id(obj) in active:
        raise ValueError("Circular reference detected")
    active.add(id(obj))
    out.append(opener)
    separator = inner
    if opener == "{":
        for key, value in sorted(obj.items()):
            out.append(separator)
            out.append(json.encoder.encode_basestring_ascii(_key(key)) + ": ")
            _write(value, depth + 1, out, active)
            separator = "," + inner
    else:
        for value in obj:
            out.append(separator)
            _write(value, depth + 1, out, active)
            separator = "," + inner
    out.append(outer + closer)
    active.discard(id(obj))


def dumps(obj: Any) -> str:
    """The stdlib's key-sorted, two-space-indented ``json.dumps`` of ``obj``, byte for byte.

    A cycle raises ``ValueError`` and a value JSON cannot hold ``TypeError``,
    as the stdlib does.
    """
    if getattr(json.encoder, "c_make_encoder", None) is None:
        return json.dumps(obj, indent=2, sort_keys=True)
    out: List[str] = []
    _write(obj, 0, out, set())
    return "".join(out)
