"""The shared wireless medium.

A broadcast domain with a disc range model, word-granularity collision
detection, and an optional Bernoulli bit-error process for failure
injection.  Collisions are detected per receiver: a word is corrupted at a
receiver when any *other* transmission in range of that receiver
overlapped it in time.
"""

import math
from collections import deque

import numpy as np


#: Noise corruption modes: ``drop`` loses the word at the receiver;
#: ``flip`` delivers it with one random bit inverted (exercising the
#: SEC-DED layer of the radio stack).
CORRUPTION_DROP = "drop"
CORRUPTION_FLIP = "flip"


class Channel:
    """A single shared radio channel.

    A word's cost is bounded by its neighbourhood, not by the run's
    history or the network's size:

    * **Neighbour sets.**  Each radio's in-range peers are found once and
      cached; :meth:`join`, a move (``Radio.position``) and a
      ``comm_range`` assignment drop the cache.  A word fans out to the
      sender's neighbours in join order, which fixes the order of the
      noise RNG draws and of every delivery the receivers schedule.
    * **Ordered window.**  Completed words wait in a deque for overlap
      checks.  :meth:`end_transmission` runs at the kernel's
      non-decreasing clock, so the deque is ordered by end time, and
      words that ended more than twice the longest joined word duration
      ago -- which can no longer overlap any word still to end -- are
      popped off its front.
    """

    def __init__(self, comm_range=None, bit_error_rate=0.0, seed=0,
                 corruption=CORRUPTION_DROP):
        self._comm_range = comm_range
        #: Probability that any given transmitted word is corrupted by
        #: channel noise (applied per receiver, independently).
        self.bit_error_rate = bit_error_rate
        if corruption not in (CORRUPTION_DROP, CORRUPTION_FLIP):
            raise ValueError("unknown corruption mode %r" % (corruption,))
        self.corruption = corruption
        self._rng = np.random.RandomState(seed)
        self._radios = []
        #: radio -> (receivers of its words in join order, the set of
        #: radios in its range including itself); built lazily.
        self._neighbours = {}
        #: How long a completed word stays in :attr:`_recent`: twice the
        #: longest word duration of any joined radio.
        self._horizon = 0.0
        #: Active transmissions: radio -> (start, end).
        self._active = {}
        #: Completed transmission intervals kept for overlap checks,
        #: ordered by end time: (radio, start, end).
        self._recent = deque()
        self.collisions = 0
        self.words_carried = 0
        self.noise_corruptions = 0
        #: Optional :class:`~repro.obs.Observability` context; ``None``
        #: disables all instrumentation.
        self.obs = None

    @property
    def comm_range(self):
        """Maximum link distance in the same units as radio positions;
        None means every radio hears every other."""
        return self._comm_range

    @comm_range.setter
    def comm_range(self, value):
        self._comm_range = value
        self.topology_changed()

    def join(self, radio, position=None):
        """Attach a radio to the medium."""
        if position is not None:
            radio.position = position
        radio.channel = self
        self._radios.append(radio)
        duration = radio.config.word_duration
        self._horizon = max(self._horizon, 2 * duration)
        # Nothing a core does reaches another core sooner than one word
        # after it: the fast engine's lookahead.
        kernel = radio.kernel
        if kernel.lookahead == 0.0 or duration < kernel.lookahead:
            kernel.lookahead = duration
        self.topology_changed()

    def topology_changed(self):
        """Forget every cached neighbour set (a radio joined or moved, or
        the range changed)."""
        self._neighbours.clear()

    def in_range(self, sender, receiver):
        if self._comm_range is None:
            return True
        sx, sy = sender.position
        rx, ry = receiver.position
        return math.hypot(sx - rx, sy - ry) <= self._comm_range

    def busy_near(self, radio):
        """Is any in-range radio currently transmitting? (CCA support.)"""
        heard = self._neighbours_of(radio)[1]
        return any(other is not radio and other in heard
                   for other in self._active)

    # -- called by Radio ----------------------------------------------------

    def begin_transmission(self, radio, word, start, end):
        self._active[radio] = (start, end)

    def end_transmission(self, radio, word, start, end):
        self._active.pop(radio, None)
        self._recent.append((radio, start, end))
        self._gc(end)
        self.words_carried += 1
        if self.obs is not None:
            self.obs.channel_word()
        for receiver in self._neighbours_of(radio)[0]:
            delivered = word
            fate = "ok"
            corrupted = self._collided(radio, receiver, start, end)
            if corrupted:
                # A collision garbles the word beyond any coding layer.
                self.collisions += 1
                fate = "collision"
                if self.obs is not None:
                    self.obs.channel_collision()
            elif (self.bit_error_rate
                  and self._rng.random_sample() < self.bit_error_rate):
                self.noise_corruptions += 1
                if self.obs is not None:
                    self.obs.channel_noise()
                if self.corruption == CORRUPTION_FLIP:
                    # Channel noise flips one bit; the receiver cannot
                    # tell -- detection is the coding layer's job.
                    delivered = word ^ (1 << self._rng.randint(0, 16))
                    fate = "flipped"
                else:
                    corrupted = True
                    fate = "noise"
            outcome = receiver.deliver(delivered, corrupted=corrupted)
            if self.obs is not None:
                # The receiver's own state trumps the channel's verdict:
                # a radio that was not listening lost the word whatever
                # the air did to it.
                if outcome == "not_listening":
                    fate = "not_listening"
                self.obs.channel_delivery(radio.name, receiver.name, end,
                                          delivered, fate)
        if self.obs is not None:
            self.obs.channel_word_done(radio.name, end)

    # -- internals ------------------------------------------------------------

    def _neighbours_of(self, radio):
        """*radio*'s (receivers in join order, in-range set), cached."""
        entry = self._neighbours.get(radio)
        if entry is None:
            heard = [other for other in self._radios
                     if self.in_range(radio, other)]
            entry = self._neighbours[radio] = (
                tuple(other for other in heard if other is not radio),
                frozenset(heard))
        return entry

    def _collided(self, sender, receiver, start, end):
        """Did any other in-range transmission overlap [start, end]?"""
        heard = self._neighbours_of(receiver)[1]
        for other, (other_start, other_end) in self._active.items():
            if (other_start < end and start < other_end
                    and other is not sender and other in heard):
                return True
        for other, other_start, other_end in self._recent:
            if (other_start < end and start < other_end
                    and other is not sender and other in heard):
                return True
        return False

    def _gc(self, now):
        """Pop completed intervals that can no longer overlap anything."""
        recent = self._recent
        stale = now - self._horizon
        while recent[0][2] < stale:
            recent.popleft()
