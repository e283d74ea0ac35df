"""Two-phase assembler for SNAP assembly source.

Syntax overview::

    ; full-line or trailing comments (also '#')
    .text                 ; assemble into IMEM (default)
    .data                 ; assemble into DMEM
    .equ NAME, expr       ; assembly-time constant
    .word expr [, expr]*  ; literal data words (labels allowed)
    .space N              ; N zero words
    .ascii "text"         ; one character per 16-bit word
    .org OFFSET           ; pad current section to a module-relative offset
    .file "app.c"         ; source file for following .loc directives
    .loc N                ; following text words came from source line N

    label:                ; labels beginning with '.' are module-local
        movi r1, 0x1234
        add  r2, r1
        ld   r3, 4(r2)
        beqz r3, .skip
        jal  subroutine
        done

Pseudo-instructions: ``li`` (alias of ``movi``), ``ret`` (``jr lr``),
``call`` (``jal``), ``push``/``pop`` (stack via ``sp``), ``inc``/``dec``.
"""

import functools
import re

from repro.asm.errors import AsmError
from repro.asm.expr import evaluate
from repro.asm.objectfile import (
    RELOC_ABS16,
    RELOC_BRANCH6,
    SECTION_DATA,
    SECTION_TEXT,
    LineEntry,
    ObjectModule,
    Relocation,
    Symbol,
)
from repro.isa.encoding import encode
from repro.isa.instruction import (
    BRANCH_OFFSET_MAX,
    BRANCH_OFFSET_MIN,
    Instruction,
)
from repro.isa.opcodes import Format, Opcode, spec_for_mnemonic
from repro.isa.registers import REG_LINK, REG_STACK, register_number

_LABEL_RE = re.compile(r"^([A-Za-z_.][\w.$]*)\s*:")
_MEM_OPERAND_RE = re.compile(r"^(.*)\((\s*[\w$]+\s*)\)$")

#: Opcodes whose R-format second field is a 4-bit shift amount, not a register.
_SHIFT_IMM_OPS = (Opcode.SLL, Opcode.SRL, Opcode.SRA)
#: R-format opcodes that take a single register operand (in the rd field).
_ONE_REG_OPS = (Opcode.RAND, Opcode.SEED, Opcode.CANCEL, Opcode.JR, Opcode.JALR)


#: Most distinct ``(source, name)`` pairs :func:`assemble` keeps; the
#: least recently used is dropped first.  A network re-assembles a few
#: dozen library and application sources, so the bound only matters to
#: fuzzers that generate sources without end.
MEMO_SIZE = 256


def assemble(source, name="module"):
    """Assemble *source* text into an :class:`ObjectModule`.

    Memoized on ``(source, name)`` (the name is part of the key because
    it labels errors and the line table): each distinct pair is
    assembled once per process, then served from a bounded LRU memo of
    :data:`MEMO_SIZE` entries.  Every call returns a fresh module whose
    lists and symbol dict are copies of the memoized ones; their items
    are ints, frozen dataclasses or named tuples, so a caller may mutate
    its module without touching anyone else's.  A source that fails to
    assemble is never memoized, so it raises :class:`AsmError` on every
    call.
    """
    module = _assemble_once(source, name)
    return ObjectModule(name=module.name, text=list(module.text),
                        data=list(module.data), symbols=dict(module.symbols),
                        relocations=list(module.relocations),
                        lines=list(module.lines))


@functools.lru_cache(maxsize=MEMO_SIZE)
def _assemble_once(source, name):
    return _Assembler(source, name).run()


class _Assembler:
    def __init__(self, source, name):
        self._source = source
        self._name = name
        self._module = ObjectModule(name=name)
        self._section = SECTION_TEXT
        self._equs = {}
        #: (section, word_offset, symbol, addend, line) for branch fixups.
        self._branch_fixups = []
        #: Source file named by ``.file`` (None -> the module name).
        self._file = None
        #: Active ``.loc`` position, or None to fall back to the
        #: assembly line itself.
        self._loc = None

    # -- driving --------------------------------------------------------

    def run(self):
        for line_number, raw_line in enumerate(self._source.splitlines(), start=1):
            self._line = line_number
            self._assemble_line(raw_line)
        self._apply_branch_fixups()
        return self._module

    def _assemble_line(self, raw_line):
        text = _strip_comment(raw_line).strip()
        while text:
            match = _LABEL_RE.match(text)
            if not match:
                break
            self._define_label(match.group(1))
            text = text[match.end():].strip()
        if not text:
            return
        if text.startswith("."):
            self._directive(text)
        else:
            self._instruction(text)

    def _error(self, message):
        raise AsmError(message, line=self._line, source_name=self._name)

    # -- symbols and sections --------------------------------------------

    @property
    def _words(self):
        return self._module.section_words(self._section)

    def _define_label(self, label):
        if label in self._module.symbols or label in self._equs:
            self._error("duplicate symbol %r" % label)
        exported = not label.startswith(".")
        self._module.symbols[label] = Symbol(
            name=label, section=self._section,
            offset=len(self._words), exported=exported)

    def _lookup_equ(self, symbol):
        return self._equs.get(symbol)

    def _evaluate(self, text):
        return evaluate(text, line=self._line, lookup=self._lookup_equ)

    # -- directives -------------------------------------------------------

    def _directive(self, text):
        parts = text.split(None, 1)
        directive = parts[0].lower()
        rest = parts[1] if len(parts) > 1 else ""
        if directive == ".text":
            self._section = SECTION_TEXT
        elif directive == ".data":
            self._section = SECTION_DATA
        elif directive == ".equ":
            self._equ(rest)
        elif directive == ".word":
            self._word(rest)
        elif directive == ".space":
            self._space(rest)
        elif directive == ".ascii":
            self._ascii(rest)
        elif directive == ".org":
            self._org(rest)
        elif directive == ".file":
            self._file_directive(rest)
        elif directive == ".loc":
            self._loc_directive(rest)
        else:
            self._error("unknown directive %r" % directive)

    def _file_directive(self, rest):
        rest = rest.strip()
        if len(rest) < 2 or rest[0] != '"' or rest[-1] != '"':
            self._error('.file needs a double-quoted name')
        self._file = rest[1:-1]
        self._loc = None

    def _loc_directive(self, rest):
        value = self._evaluate(rest)
        if not value.is_constant or value.constant < 0:
            self._error(".loc needs a non-negative constant line number")
        self._loc = (self._file or self._name, value.constant)

    def _equ(self, rest):
        name, _, expr_text = rest.partition(",")
        name = name.strip()
        if not name or not expr_text.strip():
            self._error(".equ needs NAME, expr")
        if name in self._equs or name in self._module.symbols:
            self._error("duplicate symbol %r" % name)
        value = self._evaluate(expr_text)
        if not value.is_constant:
            self._error(".equ value must be constant")
        self._equs[name] = value.constant

    def _word(self, rest):
        for piece in _split_operands(rest):
            value = self._evaluate(piece)
            if value.is_constant:
                self._emit_word(value.constant)
            else:
                self._reloc(RELOC_ABS16, value.symbol, value.constant)
                self._emit_word(0)

    def _space(self, rest):
        value = self._evaluate(rest)
        if not value.is_constant or value.constant < 0:
            self._error(".space needs a non-negative constant")
        self._words.extend([0] * value.constant)

    def _ascii(self, rest):
        rest = rest.strip()
        if len(rest) < 2 or rest[0] != '"' or rest[-1] != '"':
            self._error('.ascii needs a double-quoted string')
        for char in rest[1:-1]:
            self._emit_word(ord(char))

    def _org(self, rest):
        value = self._evaluate(rest)
        if not value.is_constant:
            self._error(".org needs a constant offset")
        if value.constant < len(self._words):
            self._error(".org would move location counter backwards")
        self._words.extend([0] * (value.constant - len(self._words)))

    def _emit_word(self, value):
        if not -0x8000 <= value <= 0xFFFF:
            self._error("word value out of 16-bit range: %d" % value)
        self._words.append(value & 0xFFFF)

    def _reloc(self, kind, symbol, addend, site_offset=None):
        if site_offset is None:
            site_offset = len(self._words)
        self._module.relocations.append(Relocation(
            section=self._section, offset=site_offset, symbol=symbol,
            kind=kind, addend=addend, line=self._line))

    # -- instructions -----------------------------------------------------

    def _record_line(self):
        """Annotate the next text word with its source position.

        A ``.loc`` from a higher-level compiler wins; hand-written
        assembly falls back to the module name and the assembly line.
        Consecutive words from the same position share one entry.
        """
        if self._loc is not None:
            file, line = self._loc
        else:
            file, line = self._name, self._line
        lines = self._module.lines
        if lines and lines[-1].file == file and lines[-1].line == line:
            return
        lines.append(LineEntry(offset=len(self._words), file=file, line=line))

    def _instruction(self, text):
        if self._section != SECTION_TEXT:
            self._error("instructions are only allowed in .text")
        self._record_line()
        parts = text.split(None, 1)
        mnemonic = parts[0].lower()
        operand_text = parts[1] if len(parts) > 1 else ""
        operands = _split_operands(operand_text)
        expansion = self._expand_pseudo(mnemonic, operands)
        if expansion is not None:
            for expanded_mnemonic, expanded_operands in expansion:
                self._encode(expanded_mnemonic, expanded_operands)
        else:
            self._encode(mnemonic, operands)

    def _expand_pseudo(self, mnemonic, operands):
        if mnemonic == "li":
            return [("movi", operands)]
        if mnemonic == "ret":
            self._expect_count(operands, 0, "ret")
            return [("jr", ["r%d" % REG_LINK])]
        if mnemonic == "call":
            self._expect_count(operands, 1, "call")
            return [("jal", operands)]
        if mnemonic == "push":
            self._expect_count(operands, 1, "push")
            return [("subi", ["r%d" % REG_STACK, "1"]),
                    ("st", [operands[0], "0(r%d)" % REG_STACK])]
        if mnemonic == "pop":
            self._expect_count(operands, 1, "pop")
            return [("ld", [operands[0], "0(r%d)" % REG_STACK]),
                    ("addi", ["r%d" % REG_STACK, "1"])]
        if mnemonic == "inc":
            self._expect_count(operands, 1, "inc")
            return [("addi", [operands[0], "1"])]
        if mnemonic == "dec":
            self._expect_count(operands, 1, "dec")
            return [("subi", [operands[0], "1"])]
        return None

    def _expect_count(self, operands, count, mnemonic):
        if len(operands) != count:
            self._error("%s takes %d operand(s), got %d"
                        % (mnemonic, count, len(operands)))

    def _encode(self, mnemonic, operands):
        try:
            spec = spec_for_mnemonic(mnemonic)
        except KeyError:
            self._error("unknown mnemonic %r" % mnemonic)
        fmt = spec.format
        if fmt == Format.N:
            self._expect_count(operands, 0, mnemonic)
            instruction = Instruction(spec.opcode)
        elif fmt == Format.R:
            instruction = self._encode_r(spec, operands)
        elif fmt == Format.B:
            instruction = self._encode_b(spec, operands)
        elif fmt == Format.RI:
            instruction = self._encode_ri(spec, operands)
        else:  # Format.J
            instruction = self._encode_j(spec, operands)
        try:
            self._words.extend(encode(instruction))
        except ValueError as error:
            self._error(str(error))

    def _register(self, text):
        try:
            return register_number(text)
        except ValueError:
            self._error("expected a register, got %r" % text)

    def _constant(self, text, low, high, what):
        value = self._evaluate(text)
        if not value.is_constant or not low <= value.constant <= high:
            self._error("%s must be a constant in [%d, %d]" % (what, low, high))
        return value.constant

    def _encode_r(self, spec, operands):
        if spec.opcode in _ONE_REG_OPS:
            self._expect_count(operands, 1, spec.mnemonic)
            return Instruction(spec.opcode, rd=self._register(operands[0]), rs=0)
        self._expect_count(operands, 2, spec.mnemonic)
        rd = self._register(operands[0])
        if spec.opcode in _SHIFT_IMM_OPS:
            shamt = self._constant(operands[1], 0, 15, "shift amount")
            return Instruction(spec.opcode, rd=rd, rs=shamt)
        return Instruction(spec.opcode, rd=rd, rs=self._register(operands[1]))

    def _encode_b(self, spec, operands):
        self._expect_count(operands, 2, spec.mnemonic)
        rs = self._register(operands[0])
        value = self._evaluate(operands[1])
        if value.is_constant:
            if not BRANCH_OFFSET_MIN <= value.constant <= BRANCH_OFFSET_MAX:
                self._error("branch offset out of range: %d" % value.constant)
            return Instruction(spec.opcode, rs=rs, imm=value.constant)
        self._branch_fixups.append(
            (self._section, len(self._words), value.symbol, value.constant,
             self._line))
        return Instruction(spec.opcode, rs=rs, imm=0)

    def _encode_ri(self, spec, operands):
        opcode = spec.opcode
        if opcode in (Opcode.LD, Opcode.ST, Opcode.LDI, Opcode.STI):
            self._expect_count(operands, 2, spec.mnemonic)
            rd = self._register(operands[0])
            match = _MEM_OPERAND_RE.match(operands[1].strip())
            if not match:
                self._error("%s needs offset(base), got %r"
                            % (spec.mnemonic, operands[1]))
            offset_text = match.group(1).strip() or "0"
            rs = self._register(match.group(2).strip())
            imm, symbol, addend = self._immediate16(offset_text)
            if symbol is not None:
                self._reloc(RELOC_ABS16, symbol, addend,
                            site_offset=len(self._words) + 1)
            return Instruction(opcode, rd=rd, rs=rs, imm=imm)
        if opcode == Opcode.BFS:
            self._expect_count(operands, 3, spec.mnemonic)
            rd = self._register(operands[0])
            rs = self._register(operands[1])
            imm, symbol, addend = self._immediate16(operands[2])
            if symbol is not None:
                self._error("bfs mask must be constant")
            return Instruction(opcode, rd=rd, rs=rs, imm=imm)
        self._expect_count(operands, 2, spec.mnemonic)
        rd = self._register(operands[0])
        imm, symbol, addend = self._immediate16(operands[1])
        if symbol is not None:
            self._reloc(RELOC_ABS16, symbol, addend,
                        site_offset=len(self._words) + 1)
        return Instruction(opcode, rd=rd, rs=0, imm=imm)

    def _encode_j(self, spec, operands):
        self._expect_count(operands, 1, spec.mnemonic)
        imm, symbol, addend = self._immediate16(operands[0])
        if symbol is not None:
            self._reloc(RELOC_ABS16, symbol, addend,
                        site_offset=len(self._words) + 1)
        return Instruction(spec.opcode, imm=imm)

    def _immediate16(self, text):
        """Evaluate a 16-bit immediate; returns (imm, symbol, addend)."""
        value = self._evaluate(text)
        if value.is_constant:
            if not -0x8000 <= value.constant <= 0xFFFF:
                self._error("immediate out of 16-bit range: %d" % value.constant)
            return value.constant & 0xFFFF, None, 0
        return 0, value.symbol, value.constant

    # -- fixups -----------------------------------------------------------

    def _apply_branch_fixups(self):
        for section, site, symbol, addend, line in self._branch_fixups:
            local = self._module.symbols.get(symbol)
            if local is not None and local.section == section:
                offset = local.offset + addend - (site + 1)
                if not BRANCH_OFFSET_MIN <= offset <= BRANCH_OFFSET_MAX:
                    raise AsmError(
                        "branch to %r out of range (offset %d)" % (symbol, offset),
                        line=line, source_name=self._name)
                words = self._module.section_words(section)
                words[site] = (words[site] & ~0x3F) | (offset & 0x3F)
            else:
                self._module.relocations.append(Relocation(
                    section=section, offset=site, symbol=symbol,
                    kind=RELOC_BRANCH6, addend=addend, line=line))


def _strip_comment(line):
    result = []
    in_string = False
    for char in line:
        if char == '"':
            in_string = not in_string
        if not in_string and char in ";#":
            break
        result.append(char)
    return "".join(result)


def _split_operands(text):
    """Split an operand list on commas that are outside parentheses."""
    operands = []
    depth = 0
    current = []
    for char in text:
        if char == "(":
            depth += 1
        elif char == ")":
            depth -= 1
        if char == "," and depth == 0:
            operands.append("".join(current).strip())
            current = []
        else:
            current.append(char)
    tail = "".join(current).strip()
    if tail:
        operands.append(tail)
    return [operand for operand in operands if operand]
