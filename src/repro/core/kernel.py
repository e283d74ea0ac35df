"""Discrete-event simulation kernel.

Every component in a simulated node or network (processor core, timer
coprocessor, radio, sensors, wireless channel) shares one kernel and
schedules callbacks on its timeline.  Time is a float in seconds.

Two lanes, one order
====================

The kernel keeps two heaps.  The **core lane** holds processor steps
(:meth:`schedule_core`); the **interaction lane** holds everything else
-- timer expiries, radio words, sensor interrupts, host callbacks
(:meth:`schedule`).  :meth:`step`, :meth:`next_time` and :meth:`run`
merge the lanes, so the global order is one order over both.  The split
exists for the fast engine's lookahead (see
:class:`~repro.core.processor.SnapProcessor` and DESIGN.md, "The
fast-path execution engine"): a core may run past *other cores'* steps,
never past an interaction event.

The order
=========

Entries sort by ``(time, scheduled_at, label, handle)``.
``scheduled_at`` is the clock when the entry was scheduled; ``label``
places the event that scheduled it among the events that ran at that
same instant.  On the reference engine every event runs in order, the
label is simply how many handles had been handed out when it started,
and the order is the plain ``(time, handle)`` order.

A fast-engine core that runs ahead executes an instruction at time
``s`` *before* events that may precede it at ``s`` -- typically another
core, whose clock may meet this one at exactly ``s`` after a different
instruction history.  So a run-ahead instruction registers its
instant, and every event that later runs at a registered instant is
placed among the ones already there by the reference engine's rule
(:meth:`_place`): first by the time its scheduler ran, then by that
scheduler's label, then by handle.  Labels are then exact wherever two
events can meet, and so is the order of everything they schedule.

Heap entries are mutable lists ``[time, (scheduled_at, label, handle),
callback, args]`` indexed by handle in ``_live``: cancelling clears the
callback slot in place and drops the index entry, so :meth:`cancel` is
O(1), idempotent, and safe on handles that already fired -- nothing
accumulates across long timer-heavy runs.  Dead entries are skipped
(and popped) lazily.

The clock between callbacks
===========================

Because a core may run ahead, :attr:`now` is not monotone *across*
callbacks: after a run-ahead burst the next callback may sit earlier on
the timeline.  Popped entries themselves come out in order, so within
one callback the clock is the callback's own time, and
interaction-lane callbacks (where host code runs: watchdogs, samplers,
telemetry) see a monotone clock, with every core's state as of exactly
that time.  A bounded :meth:`run` ends at its horizon; an unbounded one
ends at the latest time any callback reached.
"""

import heapq

_INFINITY = float("inf")


class Kernel:
    """A minimal deterministic discrete-event scheduler."""

    def __init__(self):
        #: The interaction lane and the core lane (heaps of entries).
        self._queue = []
        self._cores = []
        #: Where :meth:`schedule` pushes; :meth:`schedule_core` points it
        #: at the core lane for the duration of one call.
        self._lane = self._queue
        #: Next handle to hand out.  A plain integer (not an iterator) so
        #: a checkpoint can capture and restore the exact tie-break
        #: sequence.
        self._next_handle = 0
        self._now = 0.0
        #: The latest time a core ran ahead to; an unbounded :meth:`run`
        #: leaves the clock there if no callback ran later.
        self._frontier = 0.0
        #: The label of the running event (see the module docstring);
        #: ``None`` outside callbacks, where each entry is its own event.
        self._label = None
        #: Instants at which a core ran ahead: time -> ``[floor, key,
        #: label, key, label, ...]`` over the events that ran there
        #: since, in the reference order (see :meth:`_place`).
        self._instants = {}
        #: Size of ``_instants`` that triggers dropping past instants.
        self._instants_limit = 256
        #: handle -> live heap entry; cancelled/fired handles are absent.
        self._live = {}
        #: Bumped on every schedule; burst loops use it to know when a
        #: cached lane head may have moved *earlier*.  (Cancels can only
        #: move it later, which a stale cache handles safely.)
        self._version = 0
        #: Set by :meth:`run`: the ``until`` horizon of the active run
        #: (None outside a run or for unbounded runs).
        self._horizon = None
        #: Cumulative callbacks executed over the kernel's lifetime.
        #: Host-side telemetry only (events/s heartbeats); not part of
        #: any checkpoint or digest.
        self.executed = 0
        #: True while inside an unbounded :meth:`run` (no ``max_events``):
        #: components may batch work between events.  ``step()`` called
        #: directly -- e.g. by a debugger -- keeps single-event semantics.
        self._burst_ok = False
        #: The shortest time in which anything one core does can reach
        #: another core: the shortest word duration of any radio joined
        #: to a channel on this kernel (set by ``Channel.join``).  Zero
        #: -- no lookahead -- until a radio joins.
        self.lookahead = 0.0

    @property
    def now(self):
        """Current simulation time in seconds."""
        return self._now

    @property
    def horizon(self):
        """The ``until`` bound of the active :meth:`run`, or ``None``
        outside a run / for unbounded runs.  Lets periodic host-side
        callbacks (progress heartbeats) compute an ETA."""
        return self._horizon

    def schedule(self, delay, callback, *args):
        """Schedule ``callback(*args)`` to run *delay* seconds from now.

        Returns an opaque handle usable with :meth:`cancel`.  Events at
        equal times run in scheduling order (deterministic).
        """
        if delay < 0:
            raise ValueError("cannot schedule into the past (delay=%r)" % delay)
        handle = self._next_handle
        self._next_handle = handle + 1
        now = self._now
        label = self._label
        if label is None:
            label = handle
        entry = [now + delay, (now, label, handle), callback, args]
        self._live[handle] = entry
        heapq.heappush(self._lane, entry)
        self._version += 1
        return handle

    def schedule_core(self, delay, callback, *args):
        """:meth:`schedule` on the core lane: a processor's next step.

        Goes through :meth:`schedule`, so anything wrapping it sees
        core steps too.
        """
        if delay < 0:
            raise ValueError("cannot schedule into the past (delay=%r)" % delay)
        self._lane = self._cores
        handle = self.schedule(delay, callback, *args)
        self._lane = self._queue
        return handle

    def schedule_at(self, time, callback, *args):
        """Schedule ``callback(*args)`` at an absolute *time*."""
        return self.schedule(time - self._now, callback, *args)

    def cancel(self, handle):
        """Cancel a previously scheduled callback.

        O(1); a no-op when the handle already fired or was already
        cancelled.
        """
        entry = self._live.pop(handle, None)
        if entry is not None:
            entry[2] = None

    @property
    def pending(self):
        """Number of scheduled (non-cancelled) events."""
        return len(self._live)

    def _next_lane(self):
        """The lane whose head is the next live entry, or None when both
        are empty.  Pops dead heads on the way."""
        queue = self._queue
        while queue and queue[0][2] is None:
            heapq.heappop(queue)
        cores = self._cores
        while cores and cores[0][2] is None:
            heapq.heappop(cores)
        if cores and (not queue or cores[0] < queue[0]):
            return cores
        return queue if queue else None

    def burst_bounds(self, lookahead):
        """The two fetch-time bounds of a core's burst, ``inf`` when
        nothing bounds it: *strict*, the next entry on either lane, and
        *relaxed*, the next interaction entry or the next core step plus
        *lookahead*, whichever is sooner."""
        queue = self._queue
        while queue and queue[0][2] is None:
            heapq.heappop(queue)
        cores = self._cores
        while cores and cores[0][2] is None:
            heapq.heappop(cores)
        strict = relaxed = queue[0][0] if queue else _INFINITY
        if cores:
            step = cores[0][0]
            if step < strict:
                strict = step
            step += lookahead
            if step < relaxed:
                relaxed = step
        return strict, relaxed

    def _place(self, time, key, ahead):
        """The label of an event about to run at *time* whose order key
        is *key* = ``(scheduled_at, scheduler's label, handle)``.

        With *ahead* (a core running ahead of others) the instant is
        registered if it is not yet.  At a registered instant the event
        is placed among those that ran there by key.  Elsewhere, or
        after all of them, it gets the next handle, which follows
        everything so far; an event that runs in order there needs no
        record, since whatever runs at the instant after it also follows
        it in the reference order.
        """
        instant = self._instants.get(time)
        if instant is None:
            label = self._next_handle
            if ahead:
                # Whatever ran here before ran in order, below this label.
                self._instants[time] = [label - 1, key, label]
            return label
        # instant = [floor, key, label, key, label, ...], keys ascending.
        if key > instant[-2]:
            if not ahead:
                return self._next_handle
            label = max(self._next_handle, instant[-1] + 1)
            instant += (key, label)
            return label
        index = 1
        while instant[index] < key:
            index += 2
        lower = instant[index - 1]
        upper = instant[index + 1]
        label = (lower + upper) / 2
        if not lower < label < upper:
            raise RuntimeError("no label left between %r and %r at t=%r"
                               % (lower, upper, time))
        instant[index:index] = (key, label)
        return label

    def _forget_instants(self, before):
        """Drop registered instants before *before*: nothing can run at
        them any more (an entry is never popped earlier than one popped
        before it, and bursts only move forward from their pop)."""
        instants = self._instants
        for time in [time for time in instants if time < before]:
            del instants[time]
        self._instants_limit = 2 * len(instants) + 256

    def step(self):
        """Run the next event; returns False when both lanes are empty."""
        lane = self._next_lane()
        if lane is None:
            return False
        self._fire(heapq.heappop(lane))
        return True

    def _fire(self, entry):
        """Run the popped *entry* at its time, under its label."""
        order = entry[1]
        del self._live[order[2]]
        time = self._now = entry[0]
        instants = self._instants
        if instants:
            if len(instants) > self._instants_limit:
                self._forget_instants(time)
            if time in instants:
                self._label = self._place(time, order, False)
            else:
                self._label = self._next_handle
        else:
            self._label = self._next_handle
        self.executed += 1
        entry[2](*entry[3])

    def run(self, until=None, max_events=None):
        """Run events until the queue drains, *until* seconds pass, or
        *max_events* callbacks have run.  Returns the number of callbacks
        executed.

        When the run ends with no runnable event at or before *until*
        (the queue drained, or the next event lies beyond the horizon),
        the clock advances to *until* so back-to-back bounded runs and
        timeline samplers see a consistent timeline.  A run cut short by
        *max_events* leaves the clock at the last event executed.
        """
        executed = 0
        saved = (self._horizon, self._burst_ok)
        self._horizon = until
        self._burst_ok = max_events is None
        try:
            next_lane, fire, pop = self._next_lane, self._fire, heapq.heappop
            while True:
                if max_events is not None and executed >= max_events:
                    break
                lane = next_lane()
                if lane is None:
                    break
                if until is not None and lane[0][0] > until:
                    break
                fire(pop(lane))
                executed += 1
        finally:
            self._horizon, self._burst_ok = saved
            self._label = None
        if self._frontier > self._now:
            self._now = self._frontier
        if until is not None and until > self._now:
            next_time = self.next_time()
            if next_time is None or next_time > until:
                self._now = until
        return executed

    def next_time(self):
        """Time of the next live event, or None when the queue is empty."""
        lane = self._next_lane()
        return lane[0][0] if lane is not None else None

    # -- inspection ------------------------------------------------------------

    def heap_entries(self):
        """Every entry on both lanes, live or cancelled, in execution
        order: the raw ``[time, (scheduled_at, label, handle), callback,
        args]`` lists (a cancelled entry's callback is ``None``).

        For invariant checks and crash bundles; mutating an entry
        mutates the schedule.
        """
        return sorted(self._queue + self._cores)

    # -- checkpoint support ----------------------------------------------------

    def live_entries(self):
        """The live entries as ``(time, handle, callback, args,
        scheduled_at, label, core)`` tuples in execution order; *core*
        is True for core-lane entries.

        Cancelled entries are excluded -- they carry no future behavior.
        Used by :mod:`repro.sim.checkpoint` to serialize the schedule.
        """
        cores = {id(entry) for entry in self._cores}
        return [(entry[0], entry[1][2], entry[2], entry[3], entry[1][0],
                 entry[1][1], id(entry) in cores)
                for entry in sorted(self._live.values())]

    def restore_state(self, now, next_handle, entries, core_entries=()):
        """Replace clock, handle counter, and both lanes with restored
        state.

        *entries* (interaction lane) and *core_entries* (core lane) are
        iterables of ``(time, handle, callback, args[, scheduled_at,
        label])``; a missing *scheduled_at* defaults to *now* and a
        missing *label* to the handle, which orders the entries by
        ``(time, handle)``.  Handles must be unique and below
        *next_handle*.  Replaces any existing schedule wholesale.
        """
        self._now = now
        self._frontier = now
        self._queue = []
        self._cores = []
        self._lane = self._queue
        self._live = {}
        self._label = None
        self._instants = {}
        for lane, items in ((self._queue, entries),
                            (self._cores, core_entries)):
            for item in items:
                time, handle, callback, args = item[:4]
                scheduled_at = item[4] if len(item) > 4 else now
                label = item[5] if len(item) > 5 else handle
                if handle >= next_handle:
                    raise ValueError(
                        "restored handle %d is not below the restored "
                        "counter %d" % (handle, next_handle))
                if handle in self._live:
                    raise ValueError("duplicate restored handle %d" % handle)
                entry = [time, (scheduled_at, label, handle), callback,
                         tuple(args)]
                self._live[handle] = entry
                lane.append(entry)
            heapq.heapify(lane)
        self._next_handle = next_handle
        self._version += 1
