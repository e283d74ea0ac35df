"""Object-module and linked-program representations."""

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Tuple

#: Section names.  ``text`` assembles into IMEM, ``data`` into DMEM.
SECTION_TEXT = "text"
SECTION_DATA = "data"

#: Relocation kinds.
#: ``abs16``  -- the 16-bit word at the site receives the symbol's address.
#: ``branch6`` -- the low 6 bits of the word at the site receive the signed
#: word offset from (site address + 1) to the symbol.
RELOC_ABS16 = "abs16"
RELOC_BRANCH6 = "branch6"


@dataclass(frozen=True)
class Symbol:
    """A named address within a module section."""

    name: str
    section: str
    offset: int
    exported: bool = True


@dataclass(frozen=True)
class Relocation:
    """A patch site that needs a symbol's final address."""

    section: str
    offset: int
    symbol: str
    kind: str
    #: Constant added to the symbol address (supports ``label+2`` operands).
    addend: int = 0
    #: Source line, for error messages.
    line: int = 0


class LineEntry(NamedTuple):
    """A source-line annotation for text words at and after *offset*.

    The assembler records one entry per source-position change: all text
    words from ``offset`` up to the next entry's offset came from
    (*file*, *line*).  For C-compiled modules the compiler emits
    ``.file``/``.loc`` directives carrying the original C position; for
    hand-written assembly the assembler falls back to the module name
    and the assembly line itself.  A named tuple, so the linker can key
    its memo on a module's whole line list cheaply.
    """

    offset: int
    file: str
    line: int


@dataclass(frozen=True)
class SourceLoc:
    """Where one IMEM address came from: function, file, and line."""

    function: Optional[str]
    file: Optional[str]
    line: Optional[int]

    @property
    def is_unknown(self):
        """True when no table could place this address (out-of-range
        PC, linker padding, or a ``.hex`` image with no symbols)."""
        return (self.function is None and self.file is None
                and self.line is None)

    def __str__(self):
        parts = []
        if self.function:
            parts.append(self.function)
        if self.file:
            parts.append("%s:%s" % (self.file,
                                    self.line if self.line else "?"))
        return " at ".join(parts) if parts else "?"


#: The typed unknown location.  ``Program.lookup`` returns this (rather
#: than the nearest preceding table entry) for PCs outside the linked
#: image and for words the linker marked as unmapped padding.
UNKNOWN_LOC = SourceLoc(function=None, file=None, line=None)

#: Line-table file marker for words with no source mapping (linker
#: padding, modules assembled without line info).  Sorts before any real
#: filename and is never a legal path.
UNMAPPED_FILE = ""


@dataclass
class ObjectModule:
    """One assembled translation unit."""

    name: str
    text: List[int] = field(default_factory=list)
    data: List[int] = field(default_factory=list)
    symbols: Dict[str, Symbol] = field(default_factory=dict)
    relocations: List[Relocation] = field(default_factory=list)
    #: Source-line table for the text section, ascending by offset.
    lines: List[LineEntry] = field(default_factory=list)

    def section_words(self, section):
        if section == SECTION_TEXT:
            return self.text
        if section == SECTION_DATA:
            return self.data
        raise ValueError("unknown section %r" % (section,))


@dataclass
class Program:
    """A fully linked, loadable program image."""

    imem: List[int]
    dmem: List[int]
    symbols: Dict[str, int]
    entry: int = 0
    #: pc -> source annotations, ascending by address: ``(address, file,
    #: line)``.  Each entry covers addresses up to the next entry.
    line_table: List[Tuple[int, str, int]] = field(default_factory=list)
    #: Function boundaries, ascending by address: ``(address, name)``.
    func_table: List[Tuple[int, str]] = field(default_factory=list)

    @property
    def text_size_words(self):
        return len(self.imem)

    @property
    def text_size_bytes(self):
        """Code size in bytes (each word is two bytes)."""
        return 2 * len(self.imem)

    @property
    def data_size_bytes(self):
        return 2 * len(self.dmem)

    def address_of(self, symbol):
        """Final address of a linked symbol; raises ``KeyError`` if absent."""
        return self.symbols[symbol]

    # -- symbolication -----------------------------------------------------

    def lookup(self, pc):
        """Symbolicate an IMEM address into a :class:`SourceLoc`.

        Uses the linked function table (text symbols) and the merged
        source-line table.  PCs outside ``[0, len(imem))`` and PCs the
        linker marked as unmapped padding (:data:`UNMAPPED_FILE`
        sentinel entries) return :data:`UNKNOWN_LOC` -- never the
        nearest preceding entry, which would attribute padding to
        whatever code happened to be linked before it.  Fields the
        tables cannot resolve come back ``None`` -- a ``.hex``-loaded
        image with no symbols yields the unknown location too.
        """
        if not isinstance(pc, int) or isinstance(pc, bool) \
                or not 0 <= pc < len(self.imem):
            return UNKNOWN_LOC
        file = line = None
        if self.line_table and pc >= self.line_table[0][0]:
            index = bisect_right(self.line_table, (pc, "￿", 1 << 30)) - 1
            _, file, line = self.line_table[index]
            if file == UNMAPPED_FILE:
                # Padding sentinel: this word has no source; suppress
                # the function too rather than blame a neighbor.
                return UNKNOWN_LOC
        function = None
        if self.func_table and pc >= self.func_table[0][0]:
            index = bisect_right(self.func_table, (pc, "￿")) - 1
            function = self.func_table[index][1]
        return SourceLoc(function=function, file=file, line=line)
