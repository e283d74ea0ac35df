"""Span tracing for the benchmark's traced run.

For the duration of one run, :func:`installed` wraps the layers' public
functions -- from the benchmark's side, without touching the program's
files -- so that every call records a span: its name, start, end and
parent span.  Spans live in four flat arrays (24 bytes each) because the
32-node convergecast makes millions of ``Channel.in_range`` calls; they
are written out once the run ends.

Layers, by span:

==============  =========================================================
``kernel``      ``Kernel.run`` / ``step`` / ``schedule`` / ``cancel``
``core``        each event callback the kernel runs (processor steps and
                bursts, timer expiry, sensors), minus the spans it
                contains: the host time inside ``Kernel.run`` that no
                other layer's span covers
``radio``       public ``Radio`` methods and callbacks into a ``Radio``
``channel``     public ``Channel`` methods
``obs``         public ``Observability`` methods (the hooks)
``obs.flight``  public ``FlightRecorder`` methods
``asm``         ``repro.asm.assemble`` / ``link``
``node``        ``SensorNode.load``
==============  =========================================================

A span's self time is its duration minus the durations of its direct
children; a layer's self time is the sum over its spans.
"""

import contextlib
import inspect
import sys
import time
from array import array

import numpy as np

import repro.asm
from repro.core.kernel import Kernel
from repro.node import SensorNode
from repro.obs import FlightRecorder, Observability
from repro.radio.channel import Channel
from repro.radio.transceiver import Radio

#: Layer of a kernel callback, by the class of the object it is bound
#: to; callbacks into anything else are core work.
CALLBACK_LAYERS = {Radio: "radio", Channel: "channel"}


def _invoke(callback, *args):
    return callback(*args)


class Tracer:
    """In-memory span store."""

    def __init__(self):
        #: name id -> span name / layer.
        self.names = []
        self.layers = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]

    def name_id(self, name, layer):
        key = (name, layer)
        if key not in self._ids:
            self._ids[key] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
        return self._ids[key]

    def wrap(self, name, layer, function):
        """*function*, recording one span per call."""
        name_id = self.name_id(name, layer)
        names, parents, starts, ends = (self.name, self.parent, self.start,
                                        self.end)
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                return function(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        return traced

    def callback_runner(self):
        """A trampoline the traced ``Kernel.schedule`` puts on the heap
        in place of each callback: runs the callback inside a span named
        after it, in the layer of the object it is bound to."""
        spans = {}

        def run_callback(callback, *args):
            key = getattr(callback, "__func__", callback)
            span = spans.get(key)
            if span is None:
                owner = type(getattr(callback, "__self__", None))
                layer = CALLBACK_LAYERS.get(owner, "core")
                span = spans[key] = self.wrap(
                    "callback.%s.%s" % (owner.__name__,
                                        getattr(callback, "__name__", "?")),
                    layer, _invoke)
            return span(callback, *args)

        return run_callback

    def __len__(self):
        return len(self.name)

    def arrays(self):
        """The spans as numpy arrays: name id, parent index (-1 for a
        root), start, end (``time.perf_counter`` seconds)."""
        return (np.frombuffer(self.name, dtype=np.int32),
                np.frombuffer(self.parent, dtype=np.int32),
                np.frombuffer(self.start, dtype=np.float64),
                np.frombuffer(self.end, dtype=np.float64))

    def totals(self, since=None):
        """Per span name, over spans starting at or after *since*:
        ``{name: (layer, calls, self_s)}``."""
        name, parent, start, end = self.arrays()
        if not len(name):
            return {}
        duration = end - start
        children = np.bincount(parent + 1, weights=duration,
                               minlength=len(name) + 1)[1:]
        own = duration - children
        if since is not None:
            keep = start >= since
            name, own = name[keep], own[keep]
        calls = np.bincount(name, minlength=len(self.names))
        self_s = np.bincount(name, weights=own, minlength=len(self.names))
        return {self.names[index]: (self.layers[index], int(calls[index]),
                                    float(self_s[index]))
                for index in range(len(self.names)) if calls[index]}

    def save(self, path):
        name, parent, start, end = self.arrays()
        np.savez(path, name=name, parent=parent, start=start, end=end,
                 names=np.array(self.names), layers=np.array(self.layers))


def _public_functions(cls):
    return [attr for attr, value in vars(cls).items()
            if not attr.startswith("_") and inspect.isfunction(value)]


@contextlib.contextmanager
def installed(tracer):
    """Wrap every traced function for the duration of the block."""
    patches = []

    def patch(owner, attr, replacement):
        patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def wrap_method(cls, attr, layer, prefix):
        patch(cls, attr, tracer.wrap("%s.%s" % (prefix, attr), layer,
                                     vars(cls)[attr]))

    try:
        for attr in ("run", "step", "cancel"):
            wrap_method(Kernel, attr, "kernel", "kernel")
        schedule = tracer.wrap("kernel.schedule", "kernel",
                               vars(Kernel)["schedule"])
        run_callback = tracer.callback_runner()

        def traced_schedule(kernel, delay, callback, *args):
            return schedule(kernel, delay, run_callback, callback, *args)

        patch(Kernel, "schedule", traced_schedule)
        for cls, layer, prefix in ((Channel, "channel", "channel"),
                                   (Radio, "radio", "radio"),
                                   (Observability, "obs", "obs"),
                                   (FlightRecorder, "obs.flight",
                                    "obs.flight")):
            for attr in _public_functions(cls):
                wrap_method(cls, attr, layer, prefix)
        wrap_method(SensorNode, "load", "node", "node")
        # Callers bind assemble/link at import time, so rebind every
        # repro module's reference to them.
        for attr in ("assemble", "link"):
            original = getattr(repro.asm, attr)
            traced = tracer.wrap("asm.%s" % attr, "asm", original)
            for name, module in list(sys.modules.items()):
                if (name == "repro" or name.startswith("repro.")) \
                        and vars(module).get(attr) is original:
                    patch(module, attr, traced)
        yield tracer
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)
