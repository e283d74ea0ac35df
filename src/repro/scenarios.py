"""The scenario catalogue: every built-in ``(sim, horizon)`` workload,
described once.

Each :data:`CATALOGUE` entry is a *builder* ``builder(fast_path) ->
(sim, horizon)``: it assembles the simulation on the chosen execution
engine and plays any staged host-side prologue (boot runs, route
seeding, packet injection), then hands back a
:class:`~repro.network.NetworkSimulator` or a bare
:class:`~repro.node.SensorNode` that evolves autonomously to *horizon*.
The checkpoint differential (``python -m repro.sim.differential``),
``snap-diff scenario:NAME[:fast|ref]`` and ``snap-energy NAME`` all
draw from this one table.

The entries deliberately cover the state bit-identity is most likely to
get wrong:

* ``straightline`` -- a single busy core (burst engine mid-flight).
* ``blink`` -- fig. 5 timers: armed timer registers and their pending
  kernel expirations.
* ``c_blink`` -- the same blink compiled from C, so every frame
  symbolicates to a ``blink.c`` line.
* ``sti`` -- timer-driven self-modifying code: predecoded-IMEM validity
  churns for the whole run.
* ``chain_biterr`` -- multi-hop DATA traffic over a noisy channel:
  in-flight radio words, TX queues, MAC retries, and the channel noise
  RNG mid-stream.
* ``aodv_noroute`` -- AODV route discovery that never resolves: RREQ
  flooding state in guest DMEM.
* ``convergecast`` -- periodic sensing with per-node temperature RNGs
  (the expensive case).

The AODV chain itself (:func:`build_chain` plus :func:`send`) is shared
with ``snap-net-trace`` and the ``chain_ber`` sweep, which drive their
own packet windows over it.
"""

from repro.asm import build
from repro.cc.compiler import build_c_node
from repro.core import CoreConfig
from repro.isa.encoding import encode
from repro.isa.events import Event
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode
from repro.netstack import build_blink_app, layout
from repro.netstack.drivers import build_aodv_node, build_tx_node
from repro.netstack.runtime import boot_source
from repro.network.experiments import build_convergecast
from repro.network.simulator import NetworkSimulator
from repro.node import SensorNode


def run_to(sim, until):
    """Advance a scenario's simulation to *until*.

    A bare :class:`~repro.node.SensorNode` runs its kernel directly,
    skipping the deadlock check :meth:`SensorNode.run` adds (it raises
    when the core is stalled on r15 with nothing pending): the callers
    compare whatever state the run reaches.
    """
    if isinstance(sim, SensorNode):
        sim.kernel.run(until=until)
    else:
        sim.run(until=until)


# -- single-node scenarios ----------------------------------------------------

#: A counted ALU loop with no coprocessor traffic (``%(outer)d`` outer
#: iterations of 2000 inner ones), then ``halt``.
STRAIGHTLINE = """
boot:
    movi r1, 0
    movi r2, %(outer)d
outer:
    movi r3, 2000
inner:
    addi r1, 1
    subi r3, 1
    bnez r3, inner
    subi r2, 1
    bnez r2, outer
    halt
"""


def _started_node(program, fast_path):
    node = SensorNode(node_id=1, config=CoreConfig(fast_path=fast_path))
    node.load(program)
    node.processor.start()
    return node


def build_straightline(fast_path):
    """One busy core grinding a counted loop, no coprocessor traffic."""
    program = build(STRAIGHTLINE % {"outer": 12})
    return _started_node(program, fast_path), 0.025


def build_blink(fast_path):
    """Two fig. 5 blink nodes: armed timers and LED port history."""
    net = NetworkSimulator()
    program = build_blink_app(period_ticks=400)
    config = CoreConfig(fast_path=fast_path)
    net.add_node(1, program=program, config=config)
    net.add_node(2, program=program, config=config)
    net.start()
    return net, 1.0


#: The fig. 5 blink written in the C dialect, so every hot frame
#: symbolicates to a real ``file:line`` in ``blink.c`` (the assembly
#: scenarios carry assembler line tables instead).
C_BLINK = """\
int state;

void arm() { __schedlo(0, 400); }

void init() { state = 0; arm(); }

__handler void on_timer() {
    state = 1 - state;
    __r15_write(16384 + state);
    arm();
}
"""


def build_c_blink(fast_path):
    """A single fig. 5 blink node compiled from :data:`C_BLINK`."""
    program = build_c_node(C_BLINK, handlers={Event.TIMER0: "on_timer"},
                           source_name="blink.c")
    return _started_node(program, fast_path), 1.0


#: Self-modifying workload: every timer tick the handler loads the next
#: replacement word from DMEM and rewrites its own patch site, toggling
#: it between ``mov r1, r0`` and ``add r2, r3`` -- predecode validity
#: churns for the whole run.
_STI_APP = r"""
    .equ STATE, 0x10
    .equ COUNT, 0x11
    .equ WORDS, 0x12

sti_init:
    st r0, STATE(r0)
    st r0, COUNT(r0)
    movi r1, %(word_mov)d
    st r1, WORDS(r0)
    movi r1, %(word_add)d
    st r1, 0x13(r0)
    movi r2, 5
    movi r3, 7
    ret

sti_arm:
    movi r1, 0
    movi r2, %(period)d
    schedlo r1, r2
    ret

sti_handler:
    jal sti_arm
    ld r4, STATE(r0)
    xori r4, 1
    st r4, STATE(r0)
    movi r6, WORDS
    add r6, r4
    ld r7, 0(r6)
    movi r5, patch
    sti r7, 0(r5)
patch:
    mov r1, r0
    ld r3, COUNT(r0)
    addi r3, 1
    st r3, COUNT(r0)
    done
"""


def build_sti(fast_path):
    """Timer-driven self-modifying code (predecode churn)."""
    word_mov = encode(Instruction(Opcode.MOV, rd=1, rs=0))[0]
    word_add = encode(Instruction(Opcode.ADD, rd=2, rs=3))[0]
    source = boot_source(handlers={Event.TIMER0: "sti_handler"},
                         init_calls=("sti_init",),
                         extra="    jal sti_arm")
    app = _STI_APP % {"word_mov": word_mov, "word_add": word_add,
                      "period": 500}
    return _started_node(build(source + app), fast_path), 0.05


# -- the AODV chain -----------------------------------------------------------

#: Application destination of a ``no_route`` chain: no such node exists,
#: so every route lookup misses and the first relay drops ``no_route``.
UNROUTABLE_DEST = 0x7F


def stage_and_send(node, packet):
    """Stage a packet body in a node's TX buffer and trigger its MAC."""
    for index, word in enumerate(packet[:-1]):
        node.processor.dmem.poke(layout.TX_BUF + index, word)
    node.processor.raise_soft_event()


def build_chain(nodes=3, bit_error_rate=0.0, corruption="drop", seed=0,
                comm_range=1.5, voltage=0.6, fast_path=True, no_route=False,
                obs=None):
    """A line of nodes one radio hop apart, booted and routed::

        [1] ---- [2] ---- ... ---- [N]
        source    relay             sink

    Node 1 runs the TX driver, the rest run the AODV stack.  After the
    10 ms boot run every relay holds a route to the sink, unless
    *no_route*, in which case packets go to :data:`UNROUTABLE_DEST`.
    *obs* is attached before the first node joins, so the boot is
    traced too.  Returns ``(net, app_dest)``; hand *app_dest* to
    :func:`send`.
    """
    config = CoreConfig(voltage=voltage, fast_path=fast_path)
    net = NetworkSimulator(comm_range=comm_range,
                           bit_error_rate=bit_error_rate, seed=seed,
                           corruption=corruption)
    if obs is not None:
        net.attach_observability(obs)
    net.add_node(1, program=build_tx_node(1), position=(0.0, 0.0),
                 config=config)
    for node_id in range(2, nodes + 1):
        net.add_node(node_id, program=build_aodv_node(node_id),
                     position=(float(node_id - 1), 0.0), config=config)
    net.run(until=0.01)  # everyone boots and sleeps
    if no_route:
        return net, UNROUTABLE_DEST
    # Every relay routes to the sink via its right-hand neighbour.
    for node_id in range(2, nodes):
        dmem = net.nodes[node_id].processor.dmem
        dmem.poke(layout.ROUTE_TABLE + 0, nodes)
        dmem.poke(layout.ROUTE_TABLE + 1, node_id + 1)
        dmem.poke(layout.ROUTE_TABLE + 2, nodes - node_id)
    return net, nodes


def send(net, sequence, app_dest):
    """Inject DATA packet *sequence* at the chain's source, MAC-addressed
    to the first relay and application-addressed to *app_dest*."""
    packet = layout.make_packet(
        dst=2, src=1, pkt_type=layout.PKT_TYPE_DATA, seq=sequence,
        payload=[app_dest, 0x100 + 0x40 * sequence,
                 0x120 + 0x55 * sequence])
    stage_and_send(net.nodes[1], packet)


def _chain_tail(fast_path, bit_error_rate, no_route, packets):
    """Inject *packets*, 50 ms apart; the last one's flight is the tail."""
    net, app_dest = build_chain(bit_error_rate=bit_error_rate,
                                corruption="flip", seed=7,
                                fast_path=fast_path, no_route=no_route)
    for sequence in range(packets):
        send(net, sequence, app_dest)
        if sequence < packets - 1:
            net.run(until=net.kernel.now + 0.05)
    # The last packet's whole flight (CSMA backoff, per-hop relays, MAC
    # retries under noise) happens inside the autonomous tail.  The
    # flight itself is over within ~8 ms; the tight horizon keeps
    # mid-tail checkpoint fractions landing with radio words genuinely
    # in the air rather than in the idle aftermath.
    return net, net.kernel.now + 0.02


def build_chain_biterr(fast_path):
    """Multi-hop DATA delivery over a noisy, bit-flipping channel."""
    return _chain_tail(fast_path, bit_error_rate=0.02, no_route=False,
                       packets=3)


def build_aodv_noroute(fast_path):
    """AODV route discovery that can never resolve (RREQ flooding)."""
    return _chain_tail(fast_path, bit_error_rate=0.0, no_route=True,
                       packets=2)


def build_convergecast_scenario(fast_path):
    """Periodic sensing chain with per-node temperature-sensor RNGs."""
    net = build_convergecast(chain_length=3, period_s=0.05,
                             fast_path=fast_path)
    return net, net.kernel.now + 1.0


# -- the catalogue ------------------------------------------------------------

CATALOGUE = {
    "straightline": build_straightline,
    "blink": build_blink,
    "c_blink": build_c_blink,
    "sti": build_sti,
    "chain_biterr": build_chain_biterr,
    "aodv_noroute": build_aodv_noroute,
    "convergecast": build_convergecast_scenario,
}

ENGINES = {"fast": True, "ref": False}


def resolve(spec):
    """Parse ``NAME[:fast|ref]`` against the catalogue.

    Returns ``(name, fast_path)``; the engine defaults to ``fast``.
    Raises :class:`ValueError` for a malformed spec, an unknown engine,
    or an unknown name (the message lists the sorted catalogue).
    """
    fields = spec.split(":")
    if len(fields) > 2:
        raise ValueError("bad scenario spec %r (want NAME[:fast|ref])"
                         % spec)
    name = fields[0]
    if name not in CATALOGUE:
        raise ValueError("unknown scenario %r (have: %s)"
                         % (name, ", ".join(sorted(CATALOGUE))))
    engine = fields[1] if len(fields) == 2 else "fast"
    if engine not in ENGINES:
        raise ValueError("bad engine %r in %r (want fast or ref)"
                         % (engine, spec))
    return name, ENGINES[engine]
