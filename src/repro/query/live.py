"""Incremental execution: a compiled query as a live manager tap.

A :class:`LiveQuery` *is a tap*: it is callable with the exact
``(name, times, values, now_ms)`` batches
:meth:`~repro.core.manager.ScopeManager.push_samples` offers its taps —
the same interface a :class:`~repro.capture.writer.CaptureWriter`
records — so one ``manager.add_tap(live)`` subscribes the whole
operator DAG to the live stream.  Derived samples are pushed straight
back into the manager as ordinary buffered signals, which means scopes
display them, triggers fire on them, the wire protocol ships them and a
capture tap records them, all for free.

Feedback cannot loop: the engine ignores pushed names that are not
query inputs (its own emissions included), and the compiler rejects a
query whose output name shadows one of its inputs.

Incremental and batch execution share every operator, so attaching the
same compiled plan here and running it over the capture of the same run
produces byte-identical derived columns (the equivalence suite pins
this).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Union

import numpy as np

from repro.core import spans
from repro.query.compile import Plan, compile_query
from repro.query.ops import ArrayLike, Runtime

OutputObserver = Callable[[str, np.ndarray, np.ndarray], None]
QuarantineObserver = Callable[["LiveQuery", BaseException], None]


class LiveQuery:
    """Run a compiled query incrementally over live pushed batches.

    Parameters
    ----------
    query:
        Query text or an already compiled
        :class:`~repro.query.compile.Plan`.
    manager:
        Anything with ``add_tap``/``remove_tap``/``push_samples`` — a
        :class:`~repro.core.manager.ScopeManager`, a
        :class:`~repro.net.router.Router` (in-loop shards) or a single :class:`~repro.core.scope.Scope`.  When
        given, the query attaches immediately and every derived batch is
        pushed back under its output name.  Omit it to consume outputs
        through :meth:`on_output` only.
    default_name:
        Name for the program's single anonymous expression.
    """

    def __init__(
        self,
        query: Union[str, Plan],
        manager=None,
        default_name: str = "query",
    ) -> None:
        self.plan = (
            compile_query(query, default_name)
            if isinstance(query, str)
            else query
        )
        self.runtime = Runtime(self.plan)
        self.samples_out: Dict[str, int] = {}
        self._observers: List[OutputObserver] = []
        self._quarantine_observers: List[QuarantineObserver] = []
        for name in self.plan.output_names:
            self.samples_out[name] = 0
            self.runtime.add_sink(name, self._make_emitter(name))
        self._manager = None
        self._error: Optional[BaseException] = None
        if manager is not None:
            self.attach(manager)

    # ------------------------------------------------------------------
    # The tap interface (what managers/scopes call on every push)
    # ------------------------------------------------------------------
    def __call__(
        self, name: str, times: ArrayLike, values: ArrayLike, now_ms: float
    ) -> None:
        """Consume one offered batch; non-input names are ignored.

        A tap runs inside the *producer's* push path, so nothing here
        may raise through it: batches arriving after :meth:`finish` are
        dropped, and a query that fails mid-stream — a
        :class:`~repro.query.errors.QueryError` from an operator, an
        observer that raises, a manager push failure, anything —
        quarantines itself: it detaches, stops consuming and records
        the failure in :attr:`error` instead of crashing the
        application pushing samples.
        """
        if self._error is not None or self.runtime.finished:
            return
        try:
            tracer = spans.tracer
            if tracer is not None:
                with tracer.span("derive", signal=name, n=len(times)):
                    self.runtime.feed(name, times, values)
            else:
                self.runtime.feed(name, times, values)
        except Exception as exc:
            self._quarantine(exc)

    def attach(self, manager) -> None:
        """Subscribe to ``manager`` and route emissions back into it.

        A finished or quarantined query consumes nothing ever again, so
        re-attaching one is rejected rather than silently registering a
        dead tap.
        """
        if self._manager is not None:
            raise ValueError("query is already attached; detach() first")
        if self._error is not None:
            raise ValueError(
                f"query is quarantined ({self._error!r}); build a new LiveQuery"
            )
        if self.runtime.finished:
            raise ValueError("query is finished; build a new LiveQuery")
        manager.add_tap(self)
        self._manager = manager

    def detach(self) -> None:
        """Unsubscribe; emissions then reach only :meth:`on_output`."""
        if self._manager is not None:
            self._manager.remove_tap(self)
            self._manager = None

    @property
    def attached(self) -> bool:
        return self._manager is not None

    # ------------------------------------------------------------------
    # Outputs
    # ------------------------------------------------------------------
    def on_output(self, observer: OutputObserver) -> None:
        """Also deliver every derived batch to ``observer(name, t, v)``."""
        self._observers.append(observer)

    def on_quarantine(self, observer: QuarantineObserver) -> None:
        """Call ``observer(self, exc)`` when this query quarantines.

        Fires after the query has detached and recorded :attr:`error`,
        still inside the producer's push path — observers must not
        raise (anything they do raise is swallowed, the quarantine
        already happened).  This is how a subscription service learns
        that a shared view died and can tell its subscribers.
        """
        self._quarantine_observers.append(observer)

    def _quarantine(self, exc: BaseException) -> None:
        """Record the failure, detach, notify — never raise."""
        if self._error is not None:
            return
        self._error = exc
        try:
            self.detach()
        except Exception:
            pass  # the manager may itself be mid-teardown
        for observer in self._quarantine_observers:
            try:
                observer(self, exc)
            except Exception:
                pass

    def _make_emitter(self, name: str):
        def emitter(times: np.ndarray, values: np.ndarray) -> None:
            self.samples_out[name] += times.shape[0]
            # Emissions run inside the producer's push path too: a
            # failing observer or manager push quarantines the query
            # rather than raising through push_samples.
            try:
                for observer in self._observers:
                    observer(name, times, values)
                if self._manager is not None:
                    self._manager.push_samples(name, times, values)
            except Exception as exc:
                self._quarantine(exc)

        return emitter

    def finish(self) -> None:
        """Flush watermarked tails and open windows (end of the run).

        Emits through the same path as live batches, so late tails still
        reach the manager and any observers — then detaches, since a
        finished query consumes nothing further.  Idempotent.
        """
        self.runtime.finish()
        self.detach()

    @property
    def error(self) -> Optional[BaseException]:
        """The failure that quarantined this query, if any (see
        :meth:`__call__`); None while the query is healthy.  Usually a
        :class:`~repro.query.errors.QueryError`, but any exception an
        operator, output observer or manager push raises quarantines."""
        return self._error

    @property
    def quarantined(self) -> bool:
        """True once a failure has permanently stopped this query."""
        return self._error is not None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def source_names(self) -> List[str]:
        return self.plan.source_names

    @property
    def output_names(self) -> List[str]:
        return self.plan.output_names

    @property
    def dropped(self) -> Dict[str, int]:
        """Per-input non-monotone samples shed at the query boundary."""
        return self.runtime.dropped
