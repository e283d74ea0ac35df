"""On-chip memory banks.

SNAP/LE has two 4KB single-cycle banks with no caches (Section 3.1): the
IMEM for instructions and the DMEM for data.  Both are word-addressed
arrays of 16-bit words here; the core can write either bank, which is how
the node can be re-programmed over the radio link.
"""

from repro.core.exceptions import MemoryFault

WORD_MASK = 0xFFFF


class MemoryBank:
    """A word-addressed bank of 16-bit words with access counting."""

    def __init__(self, size_words, name="mem"):
        if size_words <= 0:
            raise ValueError("memory size must be positive")
        self.name = name
        self.size_words = size_words
        self._words = [0] * size_words
        self.reads = 0
        self.writes = 0
        #: Optional ``hook(start, count)`` called after any mutation of
        #: the bank's contents (``write``, ``poke``, ``load_image``).
        #: The processor uses it to invalidate predecoded IMEM slots so
        #: self-modifying code always re-decodes the rewritten words.
        self.write_hook = None

    @property
    def size_bytes(self):
        return 2 * self.size_words

    def load_image(self, words, base=0):
        """Load a program image (list of words) starting at *base*."""
        if base < 0 or base + len(words) > self.size_words:
            raise MemoryFault("%s: image of %d words does not fit at %d"
                              % (self.name, len(words), base))
        # In-range words are stored as they are, so nodes loading images
        # linked from the same memoized modules share the word objects.
        self._words[base:base + len(words)] = [
            word if 0 <= word <= WORD_MASK else word & WORD_MASK
            for word in words]
        if self.write_hook is not None and words:
            self.write_hook(base, len(words))

    def read(self, address):
        self._check(address)
        self.reads += 1
        return self._words[address]

    def write(self, address, value):
        self._check(address)
        self.writes += 1
        self._words[address] = value & WORD_MASK
        if self.write_hook is not None:
            self.write_hook(address, 1)

    def peek(self, address):
        """Debugger access: read without touching access counters."""
        self._check(address)
        return self._words[address]

    def poke(self, address, value):
        """Debugger access: write without touching access counters."""
        self._check(address)
        self._words[address] = value & WORD_MASK
        if self.write_hook is not None:
            self.write_hook(address, 1)

    def dump(self, start=0, count=None):
        """Return a slice of memory contents (for tests and debugging)."""
        if count is None:
            count = self.size_words - start
        return list(self._words[start:start + count])

    def _check(self, address):
        if not 0 <= address < self.size_words:
            raise MemoryFault("%s: address 0x%04x out of range (%d words)"
                              % (self.name, address, self.size_words))
