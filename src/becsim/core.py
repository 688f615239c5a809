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
    receiver-side knowledge used by audits."""

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
        self.real_queues.setdefault(packet.location, []).append(packet)

    def remove_packet(self, packet: RealPacket) -> None:
        q = self.real_queues[packet.location]
        q.remove(packet)
        if not q:
            del self.real_queues[packet.location]

    def vqueue(self, qi: QueueIndex, user: int) -> list:
        return self.virtual_queues.get((qi, user), [])

    def append_token(self, token: Token) -> None:
        key = (token.location, token.native.owner)
        self.virtual_queues.setdefault(key, []).append(token)
        self.counters[key] = self.counters.get(key, 0) + 1

    def remove_token(self, token: Token) -> None:
        key = (token.location, token.native.owner)
        q = self.virtual_queues[key]
        q.remove(token)
        if not q:
            del self.virtual_queues[key]
        n = self.counters[key] - 1
        if n:
            self.counters[key] = n
        else:
            del self.counters[key]

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
    V_hat/N <= Q_hat <= V_hat.
    Deep additionally checks receiver knowledge: every listener can reconstruct
    the packet and every destination's residual is exactly its pending native.
    """
    out = []
    n = state.n_users

    packets_by_pid = {}
    for qi, packets in state.real_queues.items():
        if not validate_cc(qi, n):
            out.append(f"invalid queue index {qi!r}")
        if not packets:
            out.append(f"empty queue materialized: {qi!r}")
        for p in packets:
            if p.location != qi:
                out.append(f"packet {p.pid} location mismatch in {qi!r}")
            if not p.constituents:
                out.append(f"packet {p.pid} has no constituents")
            if p.pid in packets_by_pid:
                out.append(f"duplicate packet id {p.pid}")
            packets_by_pid[p.pid] = p

    seen_natives = {}
    for (qi, user), tokens in state.virtual_queues.items():
        if user not in qi.destinations:
            out.append(f"token queue ({qi!r},{user}) outside destination set")
        if not tokens:
            out.append(f"empty virtual queue materialized: ({qi!r},{user})")
        if state.counters.get((qi, user)) != len(tokens):
            out.append(
                f"counter-mismatch ({qi!r},{user}): "
                f"K={state.counters.get((qi, user))} vs {len(tokens)} tokens"
            )
        for t in tokens:
            if t.location != qi or t.native.owner != user:
                out.append(f"token {t.native!r} misfiled at ({qi!r},{user})")
            if t.native in seen_natives:
                out.append(f"duplicate token for {t.native!r}")
            seen_natives[t.native] = t
            holder = packets_by_pid.get(t.packet_id)
            if holder is None:
                out.append(f"token {t.native!r} references missing packet {t.packet_id}")
            else:
                if holder.location != qi:
                    out.append(f"token {t.native!r} not co-located with its packet")
                if t.native not in holder.constituents:
                    out.append(f"token {t.native!r} not in packet {t.packet_id} constituents")
            if t.native in state.decoded[user]:
                out.append(f"token exists for decoded native {t.native!r}")

    for key in state.counters:
        if key not in state.virtual_queues:
            out.append(f"counter without virtual queue: {key!r}")

    # Every nonempty Q^L_D has K^L_D(i) = |Q^L_D| for all i in D, via the
    # token/packet bijection per queue.
    for qi, packets in state.real_queues.items():
        pids = sorted(p.pid for p in packets)
        for i in qi.destinations:
            tok_pids = sorted(t.packet_id for t in state.vqueue(qi, i))
            if tok_pids != pids:
                out.append(
                    f"queue/token misalignment at ({qi!r},{i}): "
                    f"packets {pids} vs tokens {tok_pids}"
                )
    for (qi, user) in state.virtual_queues:
        if qi not in state.real_queues:
            out.append(f"tokens at ({qi!r},{user}) with no real queue")

    q_hat = state.q_hat()
    v_hat = state.v_hat()
    if not (v_hat <= n * q_hat and q_hat <= v_hat):
        out.append(f"backlog sandwich violated: Q={q_hat}, V={v_hat}, N={n}")

    if deep:
        for qi, packets in state.real_queues.items():
            for p in packets:
                for j in qi.listeners:
                    if not state.bases[j].knows(p.constituents):
                        out.append(f"listener {j} cannot reconstruct packet {p.pid} in {qi!r}")
                for i in qi.destinations:
                    residual = state.bases[i].reduce(p.constituents)
                    try:
                        tok = state.find_token(qi, i, p.pid)
                    except KeyError:
                        continue  # already reported above
                    if residual != frozenset([tok.native]):
                        out.append(
                            f"destination {i} residual for packet {p.pid} is "
                            f"{sorted(residual)} not [{tok.native!r}]"
                        )
                # constituents without tokens must already be decoded
                pending = {
                    state.find_token(qi, i, p.pid).native
                    for i in qi.destinations
                    if any(t.packet_id == p.pid for t in state.vqueue(qi, i))
                }
                for nid in p.constituents - pending:
                    if nid not in state.decoded[nid.owner]:
                        out.append(
                            f"constituent {nid!r} of packet {p.pid} is neither "
                            "pending nor decoded"
                        )
    return out
