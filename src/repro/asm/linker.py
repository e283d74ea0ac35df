"""Linker: combine :class:`ObjectModule` s into a loadable :class:`Program`.

Modules are laid out in the order given; the first module's ``.text``
therefore starts at IMEM address 0 and should contain the boot code.
IMEM and DMEM are separate 4KB (2048-word) memories (paper, Section 3.1),
so text and data addresses both start at zero.
"""

import functools

from repro.asm.assembler import MEMO_SIZE
from repro.asm.errors import LinkError
from repro.asm.objectfile import (
    RELOC_ABS16,
    RELOC_BRANCH6,
    SECTION_DATA,
    SECTION_TEXT,
    UNMAPPED_FILE,
    Program,
)
from repro.isa.instruction import BRANCH_OFFSET_MAX, BRANCH_OFFSET_MIN

#: 4KB banks of 16-bit words.
IMEM_WORDS = 2048
DMEM_WORDS = 2048


def link(modules, imem_words=IMEM_WORDS, dmem_words=DMEM_WORDS):
    """Link *modules* into a :class:`Program`."""
    text_bases = {}
    data_bases = {}
    imem = []
    dmem = []
    for module in modules:
        text_bases[module.name] = len(imem)
        data_bases[module.name] = len(dmem)
        imem.extend(module.text)
        dmem.extend(module.data)

    if len(imem) > imem_words:
        raise LinkError(_overflow_report("text", "IMEM", imem_words, modules,
                                         lambda m: len(m.text)))
    if len(dmem) > dmem_words:
        raise LinkError(_overflow_report("data", "DMEM", dmem_words, modules,
                                         lambda m: len(m.data)))

    bases = {SECTION_TEXT: text_bases, SECTION_DATA: data_bases}

    global_symbols = {}
    for module in modules:
        for symbol in module.symbols.values():
            if not symbol.exported:
                continue
            if symbol.name in global_symbols:
                raise LinkError("duplicate symbol %r (modules %r and %r)"
                                % (symbol.name,
                                   global_symbols[symbol.name][0],
                                   module.name))
            address = bases[symbol.section][module.name] + symbol.offset
            global_symbols[symbol.name] = (module.name, address)

    for module in modules:
        for reloc in module.relocations:
            target = _resolve(module, reloc, bases, global_symbols)
            _patch(module, reloc, target, bases,
                   imem if reloc.section == SECTION_TEXT else dmem)

    symbols = {name: address for name, (_, address) in global_symbols.items()}
    for module in modules:
        for symbol in module.symbols.values():
            if not symbol.exported:
                qualified = "%s:%s" % (module.name, symbol.name)
                symbols[qualified] = (bases[symbol.section][module.name]
                                      + symbol.offset)

    line_table = []
    for module in modules:
        base = text_bases[module.name]
        if module.text and (not module.lines or module.lines[0].offset > 0):
            # Words before the module's first line entry (or all of a
            # module assembled without line info) have no source
            # mapping; without this sentinel, ``Program.lookup`` would
            # attribute them to the previous module's last line.
            line_table.append((base, UNMAPPED_FILE, 0))
        line_table.extend(_placed_lines(tuple(module.lines), base))
    line_table.sort()

    func_table = _function_table(modules, text_bases)
    return Program(imem=imem, dmem=dmem, symbols=symbols, entry=0,
                   line_table=line_table, func_table=func_table)


@functools.lru_cache(maxsize=MEMO_SIZE)
def _placed_lines(lines, base):
    """Line-table rows for a module's *lines* linked at *base*.

    Memoized like :func:`~repro.asm.assembler.assemble`: every node that
    links the same library at the same address shares one set of row
    tuples instead of building its own.
    """
    return tuple((base + entry.offset, entry.file, entry.line)
                 for entry in lines)


def _function_table(modules, text_bases):
    """Function boundaries from text symbols: ``(address, name)`` ascending.

    Dot-prefixed labels (compiler temporaries, module-local branch
    targets) are not functions and are skipped; when an exported and a
    local symbol share an address the exported name wins.
    """
    table = {}
    for module in modules:
        base = text_bases[module.name]
        for symbol in module.symbols.values():
            if symbol.section != SECTION_TEXT:
                continue
            if symbol.name.startswith("."):
                continue
            address = base + symbol.offset
            if address not in table or symbol.exported:
                table[address] = symbol.name
    return sorted(table.items())


def _overflow_report(section, bank, capacity, modules, words_of):
    """A LinkError message with per-module sizes and the culprit module.

    The culprit is the module whose words first push the cumulative
    layout past the bank's capacity.
    """
    total = sum(words_of(module) for module in modules)
    culprit = None
    cumulative = 0
    for module in modules:
        cumulative += words_of(module)
        if culprit is None and cumulative > capacity:
            culprit = module.name
    sizes = ", ".join("%s=%d" % (module.name, words_of(module))
                      for module in modules if words_of(module))
    return ("program %s (%d words) exceeds %s (%d words); "
            "section sizes: %s; first module past the limit: %s"
            % (section, total, bank, capacity, sizes, culprit))


def _resolve(module, reloc, bases, global_symbols):
    local = module.symbols.get(reloc.symbol)
    if local is not None:
        base = bases[local.section][module.name]
        return base + local.offset + reloc.addend
    entry = global_symbols.get(reloc.symbol)
    if entry is None:
        raise LinkError("undefined symbol %r (module %r, line %d)"
                        % (reloc.symbol, module.name, reloc.line))
    return entry[1] + reloc.addend


def _patch(module, reloc, target, bases, image):
    site = bases[reloc.section][module.name] + reloc.offset
    if reloc.kind == RELOC_ABS16:
        image[site] = target & 0xFFFF
    elif reloc.kind == RELOC_BRANCH6:
        offset = target - (site + 1)
        if not BRANCH_OFFSET_MIN <= offset <= BRANCH_OFFSET_MAX:
            raise LinkError(
                "branch to %r out of range after linking (offset %d, "
                "module %r line %d)"
                % (reloc.symbol, offset, module.name, reloc.line))
        image[site] = (image[site] & ~0x3F) | (offset & 0x3F)
    else:
        raise LinkError("unknown relocation kind %r" % reloc.kind)
