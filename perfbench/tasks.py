"""Tasks, the unit a workload is made of, and helpers shared by the checks.

A task is one public congforge call plus its expected outcome.  Its
``fn`` takes the pass context (a dict, so later tasks can use the
objects earlier tasks built) and returns the output; ``check`` returns
None when the output is right and a message when it is not.  Checks run
after a pass, outside every timed region.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass
class Task:
    name: str
    fn: Callable[[dict], Any]
    check: Callable[[Any], str | None]
    sig: Callable[[Any], Any] = field(default=repr)


@dataclass
class Workload:
    name: str
    tasks: list


class Raised:
    """Output slot of a task that raised instead of returning."""

    def __init__(self, exc):
        self.exc = exc


def timed(fn):
    start = time.perf_counter()
    try:
        out = fn()
    except Exception as exc:  # a task that raises unexpectedly is a failed task
        out = Raised(exc)
    return out, time.perf_counter() - start


def expect(errors, call, *args, **kwargs):
    """Call and return the expected exception; a normal return is returned as is."""
    try:
        return call(*args, **kwargs)
    except errors as exc:
        return exc


def must(cond, message):
    return None if cond else message


def first_problem(*messages):
    return next((m for m in messages if m), None)
