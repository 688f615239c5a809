"""Core domain types for the broadcast-channel coding simulator.

Users are 0-based indices packed into bitmasks (UserSet). Real queues hold XOR
composites of native packets; every undecoded native packet is mirrored by
exactly one token in the virtual network, and per-(queue, user) counters track
virtual queue lengths. audit_state() checks the structural invariants that
every simulation step must preserve.

The queue keys hash and compare in C. A UserSet is an int that equals, sorts
and serializes as its mask (UserSet(3) == 3); |, & and - return a UserSet,
other int operators (^, ~, <<) a plain int. QueueIndex and NativePacketId are
named tuples, equal to the plain tuples of their fields.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import NamedTuple


class ConfigError(Exception):
    """Bad configuration or arguments (CLI exit code 1)."""


def check_n_users(n_users: int) -> None:
    """User sets are 16-bit masks, so a network has 1 to 16 users."""
    if not 1 <= n_users <= 16:
        raise ConfigError(f"n_users must be in 1..16, got {n_users}")


class MonitorViolation(Exception):
    """A runtime invariant monitor fired (CLI exit code 2)."""

    def __init__(
        self, violations, slot=None, control=None, received=None, case=None
    ):
        self.violations = list(violations)
        self.slot = slot
        self.control = control  # catalog index of the slot's control
        self.received = received  # the slot's reception set, as a mask
        self.case = case  # movement case label, once the heads have moved
        self.seed = None  # the run's seed; sim.run fills it in
        super().__init__(self.violations)

    def __str__(self):
        where = f" at slot {self.slot}" if self.slot is not None else ""
        fields = (
            ("control", self.control),
            ("received", self.received),
            ("case", self.case),
        )
        context = [f"{name} {value}" for name, value in fields if value is not None]
        if context:
            where += f" ({', '.join(context)})"
        seed = f" (seed {self.seed!r})" if self.seed is not None else ""
        return f"monitor violation{where}: " + "; ".join(self.violations) + seed


class UserSet(int):
    """Immutable subset of {0..N-1} as a bitmask, an int. N capped at 16."""

    __slots__ = ()

    def __new__(cls, mask: int = 0):
        if mask < 0:
            raise ValueError("negative mask")
        return int.__new__(cls, mask)

    mask = property(int.__int__, doc="The bitmask as a plain int.")

    @classmethod
    def of(cls, *users: int) -> "UserSet":
        m = 0
        for u in users:
            if u < 0 or u >= 16:
                raise ValueError(f"user index out of range: {u}")
            m |= 1 << u
        return cls(m)

    @classmethod
    def from_iterable(cls, users) -> "UserSet":
        return cls.of(*users)

    @classmethod
    def full(cls, n_users: int) -> "UserSet":
        return cls((1 << n_users) - 1)

    def __contains__(self, user: int) -> bool:
        return (self >> user) & 1 == 1

    def __iter__(self):
        return iter(_members(self))

    __len__ = int.bit_count

    def __or__(self, other: "UserSet") -> "UserSet":
        return UserSet(int(self) | other)

    def __and__(self, other: "UserSet") -> "UserSet":
        return UserSet(int(self) & other)

    def __sub__(self, other: "UserSet") -> "UserSet":
        return UserSet(int(self) & ~other)

    def issubset(self, other: "UserSet") -> bool:
        return not int(self) & ~other

    def isdisjoint(self, other: "UserSet") -> bool:
        return not int(self) & other

    def __repr__(self) -> str:
        return "U{" + ",".join(str(u) for u in self) + "}"


@cache  # the users in a mask, in increasing order
def _members(mask: int) -> tuple:
    return tuple(u for u in range(mask.bit_length()) if mask >> u & 1)


EMPTY = UserSet(0)


class QueueIndex(NamedTuple):
    """Real-queue index: held-by/listener set L and destination set D."""

    listeners: UserSet
    destinations: UserSet

    @property
    def level(self) -> int:
        return self.listeners.bit_count() + self.destinations.bit_count()

    @property
    def sublevel(self) -> int:
        # meaningful for level >= 3; |L| by definition
        return self.listeners.bit_count()

    def sort_key(self):
        return (self.level, self.sublevel, int(self.destinations), int(self.listeners))

    def __repr__(self) -> str:
        l = ",".join(str(u) for u in self.listeners)
        d = ",".join(str(u) for u in self.destinations)
        return f"Q[{l}->{d}]"


def validate_cc(index: QueueIndex, n_users: int) -> bool:
    """Compatibility criteria for a queue index."""
    l, d = int(index.listeners), int(index.destinations)
    if (l | d) >> n_users:
        return False  # CC1: every user below n_users
    if l & d:
        return False  # CC2
    if not d:
        return False  # CC3
    if not l and d & (d - 1):
        return False  # CC4: a root queue has exactly one destination
    return True


class NativePacketId(NamedTuple):
    """Identity of an exogenous packet: its unique intended recipient plus a
    per-recipient sequence number.  Sorts by (owner, sequence)."""

    owner: int
    sequence: int

    def __repr__(self) -> str:
        return f"n{self.owner}.{self.sequence}"


@dataclass(eq=False)
class RealPacket:
    """A stored XOR composite. constituents is the exact set of native packets
    XORed together; identity (not field equality) distinguishes packets."""

    pid: int
    constituents: frozenset
    location: QueueIndex


@dataclass(eq=False)
class Token:
    """Virtual marker for one undecoded native packet. Lives at virtual queue
    (location, native.owner) and tracks the real packet currently holding it."""

    native: NativePacketId
    packet_id: int
    location: QueueIndex


class ReceiverBasis:
    """GF(2) span of the composites a receiver has accumulated, over
    native-packet space. Rows are keyed by pivot = max constituent."""

    __slots__ = ("rows",)

    def __init__(self):
        self.rows = {}

    def reduce(self, vector) -> frozenset:
        """Residual of vector modulo the span (empty iff reconstructible)."""
        work = set(vector)
        residue = set()
        while work:
            p = max(work)
            row = self.rows.get(p)
            if row is None:
                residue.add(p)
                work.discard(p)
            else:
                work ^= row
        return frozenset(residue)

    def insert(self, vector) -> None:
        r = self.reduce(vector)
        if r:
            self.rows[max(r)] = r

    def knows(self, vector) -> bool:
        return not self.reduce(vector)

    def clear(self) -> None:
        self.rows.clear()


class NetworkState:
    """The dual real/virtual queue network at the base station, plus the
    receiver-side knowledge used by audits.

    The mutators (arrival, append_packet, remove_packet, append_token,
    remove_token, decode) make every change.  Besides the queues and
    counters they keep running state for the shallow audit: the backlogs
    Q_hat and V_hat, the packets by pid, the tokens by native, and per
    queue the users whose virtual queues there changed since the last audit.
    """

    def __init__(self, n_users: int):
        check_n_users(n_users)
        self.n_users = n_users
        self.real_queues: dict = {}  # QueueIndex -> list[RealPacket]
        self.virtual_queues: dict = {}  # (QueueIndex, user) -> list[Token]
        self.counters: dict = {}  # (QueueIndex, user) -> int
        self.bases = [ReceiverBasis() for _ in range(n_users)]
        self.decoded = [set() for _ in range(n_users)]  # per user, NativePacketId
        self._next_pid = 0
        self._next_seq = [0] * n_users
        self.running_q_hat = 0
        self.running_v_hat = 0
        self.packets_by_pid: dict = {}  # pid -> [RealPacket], one unless duplicated
        self.tokens_by_native: dict = {}  # NativePacketId -> [Token]
        self.touched: dict = {}  # QueueIndex -> mask of users touched there
        self.audited = False  # until the first audit, every audit walks

    # -- construction helpers -------------------------------------------------

    def fresh_pid(self) -> int:
        pid = self._next_pid
        self._next_pid += 1
        return pid

    def fresh_native(self, owner: int) -> NativePacketId:
        nid = NativePacketId(owner, self._next_seq[owner])
        self._next_seq[owner] += 1
        return nid

    def arrival(self, owner: int) -> RealPacket:
        """Admit one exogenous native packet for `owner`."""
        nid = self.fresh_native(owner)
        qi = QueueIndex(EMPTY, UserSet.of(owner))
        packet = RealPacket(self.fresh_pid(), frozenset([nid]), qi)
        self.append_packet(packet)
        self.append_token(Token(nid, packet.pid, qi))
        return packet

    # -- queue mutation primitives --------------------------------------------

    def queue(self, qi: QueueIndex) -> list:
        return self.real_queues.get(qi, [])

    def append_packet(self, packet: RealPacket) -> None:
        qi = packet.location
        self.real_queues.setdefault(qi, []).append(packet)
        self.packets_by_pid.setdefault(packet.pid, []).append(packet)
        self.running_q_hat += 1
        self.touched.setdefault(qi, 0)

    def remove_packet(self, packet: RealPacket) -> None:
        qi = packet.location
        q = self.real_queues[qi]
        q.remove(packet)
        if not q:
            del self.real_queues[qi]
        same = self.packets_by_pid[packet.pid]
        same.remove(packet)
        if not same:
            del self.packets_by_pid[packet.pid]
        self.running_q_hat -= 1
        self.touched.setdefault(qi, 0)

    def packet(self, pid: int) -> RealPacket:
        """The stored packet with this pid (the first, if it is duplicated)."""
        return self.packets_by_pid[pid][0]

    def vqueue(self, qi: QueueIndex, user: int) -> list:
        return self.virtual_queues.get((qi, user), [])

    def append_token(self, token: Token) -> None:
        qi, user = key = (token.location, token.native.owner)
        self.virtual_queues.setdefault(key, []).append(token)
        self.counters[key] = self.counters.get(key, 0) + 1
        self.tokens_by_native.setdefault(token.native, []).append(token)
        self.running_v_hat += 1
        self.touched[qi] = self.touched.get(qi, 0) | 1 << user

    def remove_token(self, token: Token) -> None:
        qi, user = key = (token.location, token.native.owner)
        q = self.virtual_queues[key]
        q.remove(token)
        if not q:
            del self.virtual_queues[key]
        n = self.counters[key] - 1
        if n:
            self.counters[key] = n
        else:
            del self.counters[key]
        same = self.tokens_by_native[token.native]
        same.remove(token)
        if not same:
            del self.tokens_by_native[token.native]
        self.running_v_hat -= 1
        self.touched[qi] = self.touched.get(qi, 0) | 1 << user

    def decode(self, user: int, native: NativePacketId) -> None:
        """Record that user decoded native; a token still pending for it
        marks its virtual queue touched."""
        self.decoded[user].add(native)
        for token in self.tokens_by_native.get(native, ()):
            qi = token.location
            self.touched[qi] = self.touched.get(qi, 0) | 1 << token.native.owner

    def find_token(self, qi: QueueIndex, user: int, packet_id: int) -> Token:
        for t in self.virtual_queues.get((qi, user), ()):
            if t.packet_id == packet_id:
                return t
        raise KeyError(f"no token for packet {packet_id} at ({qi!r}, {user})")

    def counter(self, qi: QueueIndex, user: int) -> int:
        return self.counters.get((qi, user), 0)

    # -- aggregates ------------------------------------------------------------

    def q_hat(self) -> int:
        return sum(len(q) for q in self.real_queues.values())

    def v_hat(self) -> int:
        return sum(self.counters.values())


def audit_state(state: NetworkState, deep: bool = False) -> list:
    """Check structural invariants; return a list of violation descriptors.

    Shallow: queue-index validity, counter/virtual-queue agreement, per-queue
    counter equality (every i in D sees K = |Q|), token/packet linkage, token
    uniqueness per undecoded native, and the backlog sandwich
    V_hat/N <= Q_hat <= V_hat.  The per-queue checks cover the queues the
    mutators touched since the last audit, and those that failed it, each
    with its destinations' virtual queues; the global ones read the running
    backlogs and pid and native indices.  A write that bypasses the
    mutators (to state.counters or a queue list) can go unseen until the
    next deep audit.
    Deep, and the first audit of a state, runs the same checks over every
    queue, token and counter, after checking the running backlogs and
    indices against that walk.  Deep additionally checks receiver knowledge:
    every listener can reconstruct the packet and every destination's
    residual is exactly its pending native.
    """
    running = (state.running_q_hat, state.running_v_hat)
    if deep or not state.audited:
        out, keys, pids, natives = _walk(state)
        q_hat, v_hat = state.q_hat(), state.v_hat()
        tokens = sum(map(len, state.virtual_queues.values()))
        if running != (q_hat, v_hat):
            out.append(
                f"running backlog Q={running[0]}, V={running[1]} differs from "
                f"the walk's Q={q_hat}, V={v_hat}"
            )
    else:
        out = []
        keys = state.touched
        pids, natives = state.packets_by_pid, state.tokens_by_native
        q_hat, v_hat = running
        tokens = v_hat  # the mutators count every token in V_hat
    bad = {}
    for qi, users in keys.items():
        before = len(out)
        _audit_queue(state, qi, users, pids, out)
        if len(out) != before:
            bad[qi] = users
    state.touched = bad  # a failed queue stays in the next shallow audit
    state.audited = True
    if len(pids) != q_hat:
        out.extend(f"duplicate packet id {k}" for k, ps in pids.items() if len(ps) > 1)
    if len(natives) != tokens:
        out.extend(f"duplicate token for {k!r}" for k, ts in natives.items() if len(ts) > 1)
    n = state.n_users
    if not (v_hat <= n * q_hat and q_hat <= v_hat):
        out.append(f"backlog sandwich violated: Q={q_hat}, V={v_hat}, N={n}")
    if deep:
        _audit_knowledge(state, out)
    return out


def _walk(state: NetworkState) -> tuple:
    """The problems of running indices that differ from the queues, every
    queue key with the mask of users keyed there, and the pid and native
    indices: the running ones when they hold what the queues hold."""
    keys: dict = {}  # QueueIndex -> mask of users with a virtual queue or counter
    pids: dict = {}
    natives: dict = {}
    for qi, packets in state.real_queues.items():
        keys.setdefault(qi, 0)
        for p in packets:
            pids.setdefault(p.pid, []).append(p)
    for (qi, user), tokens in state.virtual_queues.items():
        keys[qi] = keys.get(qi, 0) | 1 << user
        for t in tokens:
            natives.setdefault(t.native, []).append(t)
    for qi, user in state.counters:
        keys[qi] = keys.get(qi, 0) | 1 << user
    out = []
    if _same_members(pids, state.packets_by_pid):
        pids = state.packets_by_pid
    else:
        out.append("running pid index differs from the real queues")
    if _same_members(natives, state.tokens_by_native):
        natives = state.tokens_by_native
    else:
        out.append("running native index differs from the virtual queues")
    return out, keys, pids, natives


def _same_members(walked: dict, running: dict) -> bool:
    """Whether two indices list the same objects under the same keys."""
    return walked.keys() == running.keys() and all(
        sorted(map(id, objs)) == sorted(map(id, running[key]))
        for key, objs in walked.items()
    )


def _audit_queue(state, qi, users, pids, out) -> None:
    """The per-queue checks of real queue qi and of the virtual queues
    (qi, u), u a destination of qi or in the mask users.  pids maps every
    stored pid to its packets; out collects the problems."""
    packets = state.real_queues.get(qi)
    if packets is not None:
        if not validate_cc(qi, state.n_users):
            out.append(f"invalid queue index {qi!r}")
        if not packets:
            out.append(f"empty queue materialized: {qi!r}")
        for p in packets:
            if p.location != qi:
                out.append(f"packet {p.pid} location mismatch in {qi!r}")
            if not p.constituents:
                out.append(f"packet {p.pid} has no constituents")
        queue_pids = [p.pid for p in packets]
    destinations = qi.destinations
    for user in _members(users | destinations):
        key = (qi, user)
        tokens = state.virtual_queues.get(key)
        if tokens is not None:
            if user not in destinations:
                out.append(f"token queue ({qi!r},{user}) outside destination set")
            if not tokens:
                out.append(f"empty virtual queue materialized: ({qi!r},{user})")
            if state.counters.get(key) != len(tokens):
                out.append(
                    f"counter-mismatch ({qi!r},{user}): "
                    f"K={state.counters.get(key)} vs {len(tokens)} tokens"
                )
            if packets is None:
                out.append(f"tokens at ({qi!r},{user}) with no real queue")
            decoded = state.decoded[user]
            for t in tokens:
                native = t.native
                if t.location != qi or native.owner != user:
                    out.append(f"token {native!r} misfiled at ({qi!r},{user})")
                holders = pids.get(t.packet_id)
                if holders is None:
                    out.append(f"token {native!r} references missing packet {t.packet_id}")
                else:
                    holder = holders[0]
                    if holder.location != qi:
                        out.append(f"token {native!r} not co-located with its packet")
                    if native not in holder.constituents:
                        out.append(f"token {native!r} not in packet {t.packet_id} constituents")
                if native in decoded:
                    out.append(f"token exists for decoded native {native!r}")
        elif key in state.counters:
            out.append(f"counter without virtual queue: {key!r}")
        # Every nonempty Q^L_D has K^L_D(i) = |Q^L_D| for all i in D, via
        # the token/packet bijection per queue.
        if packets is not None and user in destinations:
            tok_pids = [t.packet_id for t in tokens or ()]
            if tok_pids != queue_pids and sorted(tok_pids) != sorted(queue_pids):
                out.append(
                    f"queue/token misalignment at ({qi!r},{user}): "
                    f"packets {sorted(queue_pids)} vs tokens {sorted(tok_pids)}"
                )


def _audit_knowledge(state, out) -> None:
    """The deep checks: what the listeners and destinations can decode."""
    for qi, packets in state.real_queues.items():
        # per destination, the first token of each packet
        token_of = {
            i: {t.packet_id: t for t in reversed(state.vqueue(qi, i))}
            for i in qi.destinations
        }
        for p in packets:
            for j in qi.listeners:
                if not state.bases[j].knows(p.constituents):
                    out.append(f"listener {j} cannot reconstruct packet {p.pid} in {qi!r}")
            pending = set()
            for i in qi.destinations:
                tok = token_of[i].get(p.pid)
                if tok is None:
                    continue  # already reported by the shallow checks
                pending.add(tok.native)
                residual = state.bases[i].reduce(p.constituents)
                if residual != frozenset([tok.native]):
                    out.append(
                        f"destination {i} residual for packet {p.pid} is "
                        f"{sorted(residual)} not [{tok.native!r}]"
                    )
            # constituents without tokens must already be decoded
            for nid in p.constituents - pending:
                if nid not in state.decoded[nid.owner]:
                    out.append(
                        f"constituent {nid!r} of packet {p.pid} is neither "
                        "pending nor decoded"
                    )
