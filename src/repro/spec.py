"""The one spec-string grammar: ``kind[:key=value,...]``.

Every scenario axis that rides through the CLI, the experiment grid and
the sweep cache key is named by a compact spec string — fault models
(:func:`repro.errors.make_fault_model`), arrival processes
(:func:`repro.workloads.make_arrival_process`), topologies
(:func:`repro.platform.make_topology`), stream policies and job failure
policies (:func:`repro.sim.make_stream_policy`,
:func:`repro.sim.multijob.make_failure_policy`).  They all share this
grammar, read by :class:`Spec`:

* ``kind`` is the text before the first ``:``, stripped and lowercased;
* the body after it is a comma-separated list of ``key=value`` items,
  with whitespace around keys and values ignored; an empty body means
  "no parameters";
* an empty item, an item without ``=``, an empty key or value and a
  repeated key are errors (never skipped, never last-wins);
* values are typed by the consumer through :meth:`Spec.take_int`,
  :meth:`Spec.take_float` (finite values only) and :meth:`Spec.take_str`,
  and :meth:`Spec.finish` rejects the keys nobody took.

Every error is a :class:`ValueError` (or the subclass the caller names)
whose message quotes the offending token and the whole spec.
:func:`format_number` is the matching canonical spelling of numbers, so
``make_x(x.spec) == x`` holds for every canonical spec a model renders.
"""

from __future__ import annotations

import math
import typing

__all__ = ["Spec", "format_number"]

_REQUIRED: typing.Any = object()


class Spec:
    """One tokenized spec string; the ``take_*`` methods consume its keys.

    ``what`` names the spec family in error messages (``"fault"``,
    ``"topology"``...); ``error`` is the exception type raised (a
    :class:`ValueError` subclass).  The body is tokenized on first use,
    so a kind whose body is not ``key=value`` (``trace:PATH``) can read
    :attr:`body` verbatim.
    """

    def __init__(
        self, text: str, what: str, error: type[ValueError] = ValueError
    ) -> None:
        self.text = text
        self.what = what
        self.error = error
        kind, sep, body = text.strip().partition(":")
        self.kind = kind.strip().lower()
        #: Whether the spec has a ``:`` (even with an empty body).
        self.has_body = bool(sep)
        self.body = body.strip()
        self._params: dict[str, str] | None = None

    def _fail(self, message: str) -> typing.NoReturn:
        raise self.error(f"{message} in {self.what} spec {self.text!r}")

    def _tokens(self) -> dict[str, str]:
        if self._params is None:
            params: dict[str, str] = {}
            for item in self.body.split(",") if self.body else ():
                key, sep, value = item.partition("=")
                key, value = key.strip(), value.strip()
                if not item.strip():
                    self._fail("empty parameter item")
                if not sep or not key or not value:
                    self._fail(f"malformed parameter {item.strip()!r} (expected key=value)")
                if key in params:
                    self._fail(f"duplicate parameter {key!r}")
                params[key] = value
            self._params = params
        return self._params

    def __contains__(self, name: str) -> bool:
        return name in self._tokens()

    def _pop(self, name: str, default: typing.Any) -> str | None:
        params = self._tokens()
        if name in params:
            return params.pop(name)
        if default is _REQUIRED:
            self._fail(f"missing parameter {name!r}")
        return None

    def take_str(self, name: str, default: typing.Any = _REQUIRED) -> typing.Any:
        """The raw value of ``name`` (``default`` when absent)."""
        raw = self._pop(name, default)
        return default if raw is None else raw

    def take_float(self, name: str, default: typing.Any = _REQUIRED) -> typing.Any:
        """``name`` as a finite float (``default`` when absent)."""
        raw = self._pop(name, default)
        if raw is None:
            return default
        token = f"{name}={raw}"
        try:
            value = float(raw)
        except ValueError:
            self._fail(f"{self.kind} parameter {token!r} is not a number")
        if not math.isfinite(value):
            self._fail(f"{self.kind} parameter {name} must be finite, got {token!r}")
        return value

    def take_int(self, name: str, default: typing.Any = _REQUIRED) -> typing.Any:
        """``name`` as an integer (``default`` when absent).

        Integral float spellings (``"3.0"``, ``"1e3"``) are accepted.
        """
        raw = self._pop(name, default)
        if raw is None:
            return default
        try:
            return int(raw)
        except ValueError:
            pass
        try:
            value = float(raw)
        except ValueError:
            value = math.nan
        if not (math.isfinite(value) and value == int(value)):
            token = f"{name}={raw}"
            self._fail(f"{self.kind} parameter {token!r} is not an integer")
        return int(value)

    def finish(self) -> None:
        """Reject every parameter no ``take_*`` call consumed."""
        leftover = self._tokens()
        if leftover:
            names = ", ".join(repr(k) for k in sorted(leftover))
            self._fail(f"unknown {self.kind} parameter(s) {names}")


def format_number(value: float) -> str:
    """Canonical spec spelling of a number (round-trips through float).

    Integral values print without a decimal point (``30``, not
    ``30.0``); everything else uses the shortest round-trip ``repr``.
    """
    f = float(value)
    if math.isfinite(f) and f == int(f) and abs(f) < 1e15:
        return str(int(f))
    return repr(f)
