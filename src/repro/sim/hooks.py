"""Callback attributes that do not own their target.

A model object often lets its owner observe it through a hook: the
cluster sets each worker's availability hook to one of its own bound
methods, and a control-plane executor sets the cluster's graph hook to
one of its.  Held strongly, such a bound method closes a reference cycle
(owner -> object -> hook -> owner), and a finished simulation then waits
for the cyclic collector instead of being freed by reference counting.

A :class:`WeakHook` attribute keeps a bound method as a weak reference
to its object plus the plain function, so it does not keep the object
alive.  While that object lives, the hook reads and calls exactly like
the bound method; once it is gone the hook reads ``None``.  Any other
callable (a plain function, a lambda, a ``functools.partial``) is held
strongly, as before.
"""

from __future__ import annotations

import weakref
from types import MethodType
from typing import Any, Callable, Optional


class WeakHook:
    """A data descriptor holding an optional callback without owning it.

    The value is an instance attribute named after the hook with a
    leading underscore, whose class-level default ``None`` makes a hook
    never assigned read ``None``.  A bound method is stored as
    ``(weakref.ref(obj), function)``; ``weakref.ref`` without a callback
    returns the one reference an object already has, and the descriptor
    stores again the pair it stored last when the same object's same
    method is set again, so a cluster that hooks 20k workers to one of
    its methods adds one pair and one weak reference in all.
    """

    def __init__(self, doc: str = "") -> None:
        self.__doc__ = doc
        self.slot = ""
        # The pair stored last: a weak reference and a function, so it
        # keeps no hooked object alive.
        self._last: Any = None

    def __set_name__(self, owner: type, name: str) -> None:
        self.slot = f"_{name}"
        setattr(owner, self.slot, None)

    def __get__(self, obj: Any, objtype: Optional[type] = None) -> Any:
        if obj is None:
            return self
        held = getattr(obj, self.slot)
        if held.__class__ is not tuple:
            return held
        target = held[0]()
        return None if target is None else MethodType(held[1], target)

    def __set__(self, obj: Any, callback: Optional[Callable[..., Any]]) -> None:
        if isinstance(callback, MethodType):
            ref, func = weakref.ref(callback.__self__), callback.__func__
            held = self._last
            if held is None or held[0] is not ref or held[1] is not func:
                held = self._last = (ref, func)
        else:
            held = callback
        setattr(obj, self.slot, held)
