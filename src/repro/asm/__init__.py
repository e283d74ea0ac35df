"""Assembler, linker, and object-file model for the SNAP ISA.

The paper's tool-chain was "a complete custom assembler/linker tool-chain"
(Section 4.2); this package is its reproduction.  The pipeline is::

    source text --(assemble)--> ObjectModule --(link)--> Program

``ObjectModule`` carries code/data words plus symbols and relocations, so
separately assembled modules (e.g. the MAC library and an application) can
be linked together exactly as the paper's handlers were linked against
their MAC/routing libraries.

``assemble`` is memoized on ``(source, name)``: a network whose nodes
all link the same library sources assembles each of them once, and
every call still returns a module of its own (see
:func:`repro.asm.assembler.assemble`).
"""

from repro.asm.errors import AsmError, LinkError
from repro.asm.objectfile import (
    LineEntry,
    ObjectModule,
    Program,
    Relocation,
    SourceLoc,
    Symbol,
)
from repro.asm.assembler import assemble
from repro.asm.linker import link

__all__ = [
    "AsmError",
    "LinkError",
    "LineEntry",
    "ObjectModule",
    "Program",
    "Relocation",
    "SourceLoc",
    "Symbol",
    "assemble",
    "link",
]


def build(*sources, **kwargs):
    """Assemble each source text and link them into a :class:`Program`.

    Convenience wrapper: ``build(boot_src, mac_src, app_src)``.
    """
    modules = [assemble(source, name="module%d" % index)
               for index, source in enumerate(sources)]
    return link(modules, **kwargs)
