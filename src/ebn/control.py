"""Delimited-continuation monad with syntax-tree answers.

A computation is a first-class function from a continuation to a finished
Term; `shift` may invoke the captured continuation zero or more times, and
`reset` delimits how far it reaches.  There is no global continuation state,
so the monad laws are directly testable.

This is the monad the normalizer's equations are written in: the reference
normaliser `tests/spec_nbe.py` runs them over it, and `nbe.py` runs the same
equations as a defunctionalised machine, which the tests compare with it.
"""

from __future__ import annotations

from typing import Callable, Generic, TypeVar

from .syntax import Term

A = TypeVar("A")
B = TypeVar("B")


class Residual(Generic[A]):
    """A computation `(A -> Term) -> Term`."""

    __slots__ = ("run",)

    def __init__(self, run: Callable[[Callable[[A], Term]], Term]):
        self.run = run

    def map(self, f: Callable[[A], B]) -> "Residual[B]":
        return Residual(lambda k: self.run(lambda x: k(f(x))))

    def bind(self, f: Callable[[A], "Residual[B]"]) -> "Residual[B]":
        return Residual(lambda k: self.run(lambda x: f(x).run(k)))


def ret(x: A) -> Residual[A]:
    return Residual(lambda k: k(x))


def shift(f: Callable[[Callable[[A], Term]], Term]) -> Residual[A]:
    """Capture the continuation up to the nearest enclosing reset and hand it
    to `f`, which builds the answer Term directly."""
    return Residual(f)


def reset(m: Residual[Term]) -> Term:
    """Run a Term-valued computation with the identity continuation."""
    return m.run(lambda t: t)
