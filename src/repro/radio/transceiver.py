"""Behavioral model of a TR1000-class radio transceiver.

The radio serializes 16-bit words at the configured bit rate (19.2 kbps by
default, so one word takes ~0.83 ms -- which is why the paper's message
coprocessor buffers words instead of stalling the core, Section 3.3).
Transmit requests queue inside the transceiver; each completed word raises
``on_tx_complete`` so software can pace multi-word packets.  Received
words are delivered whole through ``on_word_received``.
"""

import enum
from dataclasses import dataclass


class RadioMode(enum.Enum):
    OFF = "off"
    RX = "rx"
    TX = "tx"


@dataclass(frozen=True)
class RadioConfig:
    """Physical parameters of the transceiver."""

    bit_rate: float = 19_200.0
    word_bits: int = 16
    #: Power draw while transmitting / receiving, in watts (TR1000-class
    #: figures: ~12 mW TX, ~4.5 mW RX at 3 V).  Used by node-level energy
    #: budgets; the processor's own energy is modeled separately.
    tx_power_w: float = 12e-3
    rx_power_w: float = 4.5e-3

    @property
    def word_duration(self):
        """Seconds to serialize one 16-bit word."""
        return self.word_bits / self.bit_rate


class Radio:
    """One transceiver attached to a node and (optionally) a channel."""

    def __init__(self, kernel, config=None, name="radio", tx_queue_depth=32):
        self.kernel = kernel
        self.config = config or RadioConfig()
        self.name = name
        self.mode = RadioMode.OFF
        self.channel = None
        self.position = (0.0, 0.0)
        #: Callbacks wired by the message coprocessor.
        self.on_word_received = None
        self.on_tx_complete = None
        self._tx_queue = []
        self._tx_queue_depth = tx_queue_depth
        self._tx_busy = False
        self._rx_requested = False
        self.words_sent = 0
        self.words_received = 0
        self.words_dropped = 0
        self.tx_time = 0.0
        self.rx_time = 0.0
        self._rx_since = None
        #: Optional :class:`~repro.obs.Observability` context; ``None``
        #: disables all instrumentation.
        self.obs = None

    # -- control ---------------------------------------------------------

    def set_receive(self, enabled):
        """Enter (or leave) receive mode.

        Transmission takes priority over the mode flag: queued TX words
        still drain, after which the radio returns to the requested mode.
        """
        now = self.kernel.now
        if enabled and self.mode != RadioMode.RX:
            if not self._tx_busy:
                self.mode = RadioMode.RX
                self._rx_since = now
        elif not enabled:
            self._account_rx(now)
            if not self._tx_busy:
                self.mode = RadioMode.OFF
        self._rx_requested = enabled

    def transmit(self, word):
        """Queue one 16-bit word for transmission."""
        if len(self._tx_queue) >= self._tx_queue_depth:
            raise OverflowError("%s: transmit queue overflow" % self.name)
        self._tx_queue.append(word & 0xFFFF)
        if not self._tx_busy:
            self._start_next_word()

    @property
    def position(self):
        """Where the radio sits, in the channel's distance units."""
        return self._position

    @position.setter
    def position(self, value):
        self._position = value
        if self.channel is not None:
            self.channel.topology_changed()

    @property
    def tx_pending(self):
        """Words queued or in flight."""
        return len(self._tx_queue) + (1 if self._tx_busy else 0)

    def carrier_sense(self):
        """Clear-channel assessment: is anyone in range transmitting?

        Includes this radio's own in-flight transmission (software should
        not start a second packet while one is still serializing).
        """
        if self._tx_busy:
            return True
        if self.channel is None:
            return False
        return self.channel.busy_near(self)

    # -- transmit path ------------------------------------------------------

    def _start_next_word(self):
        word = self._tx_queue.pop(0)
        self._account_rx(self.kernel.now)
        self.mode = RadioMode.TX
        self._tx_busy = True
        duration = self.config.word_duration
        start = self.kernel.now
        if self.channel is not None:
            self.channel.begin_transmission(self, word, start, start + duration)
        self.kernel.schedule(duration, self._finish_word, word, start)

    def _finish_word(self, word, start):
        self._tx_busy = False
        self.words_sent += 1
        self.tx_time += self.config.word_duration
        if self.obs is not None:
            self.obs.radio_tx(self.name, self.kernel.now, word,
                              len(self._tx_queue))
        if self.channel is not None:
            self.channel.end_transmission(self, word, start, self.kernel.now)
        if self._tx_queue:
            self._start_next_word()
        else:
            if self._rx_requested:
                self.mode = RadioMode.RX
                self._rx_since = self.kernel.now
            else:
                self.mode = RadioMode.OFF
            if self.on_tx_complete is not None:
                self.on_tx_complete()

    # -- receive path ----------------------------------------------------------

    def deliver(self, word, corrupted=False):
        """Called by the channel when a word arrives at this radio.

        Returns the delivery outcome (``"ok"``, ``"not_listening"``, or
        ``"corrupted"``) so the channel can report the fate of each word
        to the journey tracker.
        """
        if self.mode != RadioMode.RX:
            self.words_dropped += 1
            if self.obs is not None:
                self.obs.radio_drop(self.name, self.kernel.now, word,
                                    "not_listening")
            return "not_listening"
        if corrupted:
            self.words_dropped += 1
            if self.obs is not None:
                self.obs.radio_drop(self.name, self.kernel.now, word,
                                    "corrupted")
            return "corrupted"
        self.words_received += 1
        if self.obs is not None:
            self.obs.radio_rx(self.name, self.kernel.now, word)
        if self.on_word_received is not None:
            self.on_word_received(word)
        return "ok"

    # -- accounting ------------------------------------------------------------

    def _account_rx(self, now):
        if self.mode == RadioMode.RX and self._rx_since is not None:
            self.rx_time += now - self._rx_since
            self._rx_since = None

    def radio_energy(self):
        """Radio energy consumed so far (TX + RX listening), in joules."""
        rx_time = self.rx_time
        if self.mode == RadioMode.RX and self._rx_since is not None:
            rx_time += self.kernel.now - self._rx_since
        return (self.tx_time * self.config.tx_power_w
                + rx_time * self.config.rx_power_w)
