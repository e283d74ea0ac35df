"""Binary encoding and decoding of SNAP instructions.

Word layouts (bit 15 is the most significant bit):

* ``N``  : ``oooooo 0000000000``
* ``R``  : ``oooooo dddd ssss 00``
* ``B``  : ``oooooo ssss ffffff``   (``f`` = 6-bit signed word offset)
* ``RI`` : ``oooooo dddd ssss 00`` + 16-bit immediate word
* ``J``  : ``oooooo 0000000000``   + 16-bit address word
"""

import functools

from repro.isa.instruction import Instruction
from repro.isa.opcodes import Format, Opcode, spec_for

WORD_MASK = 0xFFFF


class EncodingError(Exception):
    """Raised when a word sequence does not decode to a valid instruction."""


def encode(instruction):
    """Encode an :class:`Instruction` into a list of one or two 16-bit words."""
    instruction.validate()
    spec = instruction.spec
    opcode_bits = int(instruction.opcode) << 10
    fmt = spec.format
    if fmt == Format.N:
        return [opcode_bits]
    if fmt == Format.R:
        return [opcode_bits | (instruction.rd << 6) | (instruction.rs << 2)]
    if fmt == Format.B:
        offset = instruction.imm & 0x3F
        return [opcode_bits | (instruction.rs << 6) | offset]
    if fmt == Format.RI:
        word = opcode_bits | (instruction.rd << 6) | (instruction.rs << 2)
        return [word, instruction.imm & WORD_MASK]
    if fmt == Format.J:
        return [opcode_bits, instruction.imm & WORD_MASK]
    raise AssertionError("unreachable format %r" % fmt)


def decode(words, offset=0):
    """Decode one instruction starting at ``words[offset]``.

    Returns ``(instruction, size_in_words)``.  Raises :class:`EncodingError`
    on an unknown opcode, a truncated two-word instruction, or nonzero bits
    in fields the format leaves unused.
    """
    if offset >= len(words):
        raise EncodingError("decode past end of word stream")
    word = words[offset] & WORD_MASK
    opcode_value = word >> 10
    try:
        opcode = Opcode(opcode_value)
    except ValueError:
        raise EncodingError("unknown opcode 0x%02x in word 0x%04x"
                            % (opcode_value, word)) from None
    spec = spec_for(opcode)
    fmt = spec.format

    if spec.two_word and offset + 1 >= len(words):
        raise EncodingError("truncated two-word instruction %s" % spec.mnemonic)

    if fmt == Format.N:
        if word & 0x03FF:
            raise EncodingError("nonzero operand bits in %s" % spec.mnemonic)
        return Instruction(opcode), 1
    if fmt == Format.R:
        if word & 0x3:
            raise EncodingError("nonzero pad bits in %s" % spec.mnemonic)
        rd = (word >> 6) & 0xF
        rs = (word >> 2) & 0xF
        return Instruction(opcode, rd=rd, rs=rs), 1
    if fmt == Format.B:
        rs = (word >> 6) & 0xF
        off = word & 0x3F
        if off >= 32:
            off -= 64
        return Instruction(opcode, rs=rs, imm=off), 1
    if fmt == Format.RI:
        if word & 0x3:
            raise EncodingError("nonzero pad bits in %s" % spec.mnemonic)
        rd = (word >> 6) & 0xF
        rs = (word >> 2) & 0xF
        imm = words[offset + 1] & WORD_MASK
        return Instruction(opcode, rd=rd, rs=rs, imm=imm), 2
    if fmt == Format.J:
        if word & 0x03FF:
            raise EncodingError("nonzero operand bits in %s" % spec.mnemonic)
        imm = words[offset + 1] & WORD_MASK
        return Instruction(opcode, imm=imm), 2
    raise AssertionError("unreachable format %r" % fmt)


#: Most distinct encodings :func:`decode_words` keeps, least recently
#: used dropped first.  A 32-node convergecast executes about 240.
DECODE_MEMO_SIZE = 1024


@functools.lru_cache(maxsize=DECODE_MEMO_SIZE)
def decode_words(*words):
    """The :class:`Instruction` that exactly *words* (one word, or two
    for a two-word format) encode.

    Memoized: every core that predecodes the same encoding shares one
    frozen :class:`Instruction`.  Errors raise on every call, as from
    :func:`decode`.
    """
    return decode(words)[0]


def decode_stream(words):
    """Decode a whole word stream into ``[(address, instruction), ...]``.

    Decoding is linear from word 0; embedded data words will decode as
    (possibly bogus) instructions or raise, exactly as real fetch hardware
    would misinterpret them.
    """
    result = []
    offset = 0
    while offset < len(words):
        instruction, size = decode(words, offset)
        result.append((offset, instruction))
        offset += size
    return result
