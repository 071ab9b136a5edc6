"""Admission control: the service's front door.

Every request passes through :meth:`AdmissionController.admit` before
touching the knowledge base.  The controller enforces three bounds and
fails *typed* instead of stalling:

- a global in-flight cap (``max_in_flight``) — past it, requests wait
  in a bounded queue (``max_waiting``); a full queue sheds immediately
  with :class:`~repro.errors.ServerOverloaded`;
- a per-session in-flight cap, so one pathological client cannot
  monopolise the worker pool;
- deadlines — a request whose ``deadline_ms`` budget expires while
  waiting raises :class:`~repro.errors.DeadlineExceeded`; one that
  waits longer than ``max_wait`` without a client deadline is shed.
  The deadline is re-checked *on wakeup* too: a waiter whose budget
  expired just before a slot freed is refused, not admitted — expired
  requests must never burn worker time.

The queue depth and in-flight level surface as ``server.queue_depth``
and ``server.in_flight`` gauges, shed/deadline outcomes as counters —
the load-shedding behaviour is observable, not inferred.

**The async plane.**  The blocking :meth:`AdmissionController.admit`
is the thread-per-connection front door.  The asyncio transport must
never block its event loop, so it uses the non-blocking half of the
same controller instead: :meth:`try_admit` takes a slot or reports
"at capacity" without waiting, :meth:`release` returns it, and
:meth:`add_resume_callback` registers the transport's wake-up hook —
fired after every release, it is what lets a paused connection reader
(the socket the server deliberately stopped reading) schedule its
retry.  The blocking ``admit`` is built from the same parts, with a
condition wait where the async plane parks a reader, so the caps, the
clock and the shed/deadline/in-flight counters are one implementation.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Callable, Iterator, List, Optional

from repro.analysis.concurrency.lockdep import make_condition
from repro.errors import DeadlineExceeded, ServerOverloaded
from repro.obs.metrics import Namespace
from repro.server.session import Session


class AdmissionController:
    """Bounded waiting, in-flight caps, deadlines, typed shedding."""

    def __init__(self, metrics: Namespace,
                 max_in_flight: int = 32,
                 max_waiting: int = 64,
                 per_session: int = 4,
                 max_wait: float = 5.0,
                 clock: Optional[Callable[[], float]] = None) -> None:
        self._cond = make_condition("server.admission.cond")
        self._max_in_flight = max_in_flight
        self._max_waiting = max_waiting
        self._per_session = per_session
        self._max_wait = max_wait
        self._clock = clock if clock is not None else time.monotonic
        self._in_flight = 0   # guarded-by: _cond
        self._waiting = 0     # guarded-by: _cond
        #: The async transport's read-resume hooks, fired after every
        #: release.  Appended at serve start, snapshotted under the
        #: lock, invoked outside it (a callback must never wait on us).
        self._resume_callbacks: List[Callable[[], None]] = []  # guarded-by: _cond
        self._c_admitted = metrics.counter("admitted")
        self._c_shed = metrics.counter("shed")
        self._c_deadline = metrics.counter("deadline_exceeded")
        self._g_in_flight = metrics.gauge("in_flight")
        self._g_queue_depth = metrics.gauge("queue_depth")

    @property
    def max_in_flight(self) -> int:
        """The global in-flight cap (sizes the async executor pool)."""
        return self._max_in_flight

    @property
    def max_wait(self) -> float:
        """Longest a deadline-less request may wait for admission."""
        return self._max_wait

    def deadline_from(self, deadline_ms: Optional[float]) -> Optional[float]:
        """An absolute deadline (controller clock) from a relative
        millisecond budget; ``None`` means no client deadline."""
        if deadline_ms is None:
            return None
        return self._clock() + max(0.0, float(deadline_ms)) / 1000.0

    def _admissible(self, session: Optional[Session]) -> bool:  # holds: _cond
        if self._in_flight >= self._max_in_flight:
            return False
        if session is not None and session.in_flight >= self._per_session:
            return False
        return True

    @contextmanager
    def admit(self, session: Optional[Session] = None,
              deadline: Optional[float] = None) -> Iterator[None]:
        """Hold an admission slot for the duration of the block.

        The async plane's steps with a blocking wait in the middle:
        :meth:`try_admit`, else queue as a waiter (:meth:`parked`) until
        a slot frees or :meth:`wait_budget` runs out."""
        if not self.try_admit(session, deadline):
            give_up = self.wait_budget(deadline)
            with self.parked(), self._cond:
                while not self._admissible(session):
                    remaining = give_up - self._clock()
                    if remaining <= 0:
                        raise self.wait_expired(deadline, give_up)
                    self._cond.wait(remaining)
                # A slot freed, but the wait itself may have consumed
                # the whole budget: without this re-check a request
                # whose deadline expired moments before the wakeup
                # would be admitted anyway and burn worker time on an
                # answer nobody is waiting for.
                if deadline is not None and self._clock() >= deadline:
                    self._c_deadline.inc()
                    raise DeadlineExceeded(
                        "deadline expired while queued for admission"
                    )
                self._take_slot(session)
        try:
            yield
        finally:
            self.release(session)

    def _take_slot(self, session: Optional[Session]) -> None:  # holds: _cond
        self._in_flight += 1
        if session is not None:
            session.in_flight += 1
        self._g_in_flight.set(self._in_flight)
        self._c_admitted.inc()

    def wait_expired(self, deadline: Optional[float],
                     give_up: float) -> Exception:
        """Count and build the typed error for an admission wait whose
        budget ran out (both planes; no lock, counters lock themselves)."""
        if deadline is not None and give_up >= deadline:
            self._c_deadline.inc()
            return DeadlineExceeded(
                "deadline expired while queued for admission"
            )
        self._c_shed.inc()
        return ServerOverloaded(
            f"admission wait exceeded {self._max_wait:.3f}s"
        )

    # ------------------------------------------------------------------
    # The non-blocking half (the asyncio transport's front door)
    # ------------------------------------------------------------------

    def try_admit(self, session: Optional[Session] = None,
                  deadline: Optional[float] = None) -> bool:
        """Take an admission slot without waiting.

        Returns ``True`` with the slot held (pair with
        :meth:`release`), or ``False`` when the controller is at
        capacity — the caller parks and retries on the resume callback
        instead of blocking a thread.  An already-expired deadline
        raises :class:`~repro.errors.DeadlineExceeded` (counted), same
        as the blocking path."""
        with self._cond:
            if deadline is not None and self._clock() >= deadline:
                self._c_deadline.inc()
                raise DeadlineExceeded("deadline expired before admission")
            if not self._admissible(session):
                return False
            self._take_slot(session)
            return True

    def release(self, session: Optional[Session] = None) -> None:
        """Return a slot taken by :meth:`try_admit` (or internally by
        :meth:`admit`), wake blocked waiters, fire resume callbacks."""
        with self._cond:
            self._in_flight -= 1
            if session is not None:
                session.in_flight -= 1
            self._g_in_flight.set(self._in_flight)
            self._cond.notify_all()
            callbacks = list(self._resume_callbacks)
        for callback in callbacks:
            callback()

    def add_resume_callback(
        self, callback: Callable[[], None]
    ) -> Callable[[], None]:
        """Register a hook fired after every release; returns a
        detacher.  The async transport points this at
        ``loop.call_soon_threadsafe`` to wake its paused readers."""
        with self._cond:
            self._resume_callbacks.append(callback)

        def detach() -> None:
            with self._cond:
                if callback in self._resume_callbacks:
                    self._resume_callbacks.remove(callback)
        return detach

    @contextmanager
    def parked(self) -> Iterator[None]:
        """Account one parked (read-paused) async request as a waiter,
        so ``max_waiting`` bounds paused connections exactly like it
        bounds blocked threads; a full queue sheds typed."""
        with self._cond:
            if self._waiting >= self._max_waiting:
                self._c_shed.inc()
                raise ServerOverloaded(
                    f"admission queue full "
                    f"({self._waiting} waiting, "
                    f"{self._in_flight} in flight)"
                )
            self._waiting += 1
            self._g_queue_depth.set(self._waiting)
        try:
            yield
        finally:
            with self._cond:
                self._waiting -= 1
                self._g_queue_depth.set(self._waiting)

    def wait_budget(self, deadline: Optional[float]) -> float:
        """The absolute give-up time for one admission wait: now plus
        ``max_wait``, clipped to the request deadline."""
        give_up = self._clock() + self._max_wait
        if deadline is not None:
            give_up = min(give_up, deadline)
        return give_up

    def clock(self) -> float:
        """The controller's (injectable) clock, for budget arithmetic."""
        return self._clock()
