"""Core type tests: set semantics against Python's set as oracle, queue-index
validity rules, and the state auditor on hand-built good and bad states."""

import json
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from becsim.core import (
    EMPTY,
    NativePacketId,
    NetworkState,
    QueueIndex,
    RealPacket,
    ReceiverBasis,
    Token,
    UserSet,
    audit_state,
    validate_cc,
)

users = st.integers(min_value=0, max_value=15)
user_sets = st.frozensets(users, max_size=8)


def U(*xs):
    return UserSet.of(*xs)


class TestUserSet:
    @given(user_sets, user_sets)
    def test_ops_match_set_oracle(self, a, b):
        ua, ub = UserSet.from_iterable(a), UserSet.from_iterable(b)
        assert set(ua | ub) == a | b
        assert set(ua & ub) == a & b
        assert set(ua - ub) == a - b
        assert len(ua) == len(a)
        assert ua.issubset(ub) == a.issubset(b)
        assert ua.isdisjoint(ub) == a.isdisjoint(b)
        for u in range(16):
            assert (u in ua) == (u in a)

    @given(user_sets)
    def test_equality_order_insensitive(self, a):
        xs = sorted(a)
        assert UserSet.of(*xs) == UserSet.of(*reversed(xs))
        assert hash(UserSet.of(*xs)) == hash(UserSet.of(*reversed(xs)))

    def test_full_and_empty(self):
        assert set(UserSet.full(4)) == {0, 1, 2, 3}
        assert not EMPTY
        assert U(2)
        assert tuple(U(0, 2)) == (0, 2)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            UserSet.of(16)
        with pytest.raises(ValueError):
            UserSet.of(-1)


class TestQueueIndex:
    def test_validate_cc_examples(self):
        # users shifted to 0-based
        assert validate_cc(QueueIndex(U(2), U(0, 1)), 3)
        assert validate_cc(QueueIndex(EMPTY, U(0)), 3)
        assert not validate_cc(QueueIndex(EMPTY, U(0, 1)), 3)  # CC4
        assert not validate_cc(QueueIndex(U(0), U(0, 1)), 3)  # CC2
        assert not validate_cc(QueueIndex(U(2), EMPTY), 3)  # CC3
        assert not validate_cc(QueueIndex(U(3), U(0)), 3)  # CC1

    @pytest.mark.parametrize("n_users", range(1, 6))
    def test_validate_cc_matches_set_definition(self, n_users):
        # the criteria as set relations, over every (L, D) on six users
        full = UserSet.full(n_users)
        for lm in range(1 << 6):
            for dm in range(1 << 6):
                l, d = UserSet(lm), UserSet(dm)
                want = (
                    l.issubset(full)
                    and d.issubset(full)
                    and l.isdisjoint(d)
                    and bool(d)
                    and (bool(l) or len(d) == 1)
                )
                assert validate_cc(QueueIndex(l, d), n_users) == want, (l, d)

    def test_level_sublevel(self):
        qi = QueueIndex(U(2), U(0, 1))
        assert qi.level == 3
        assert qi.sublevel == 1
        assert QueueIndex(EMPTY, U(0)).level == 1

    def test_equality_order_insensitive(self):
        assert QueueIndex(U(1, 2), U(0)) == QueueIndex(U(2, 1), U(0))


class TestReceiverBasis:
    def n(self, owner, seq):
        return NativePacketId(owner, seq)

    def test_insert_and_reduce(self):
        b = ReceiverBasis()
        n0, n1, n2 = self.n(0, 0), self.n(1, 0), self.n(2, 0)
        b.insert(frozenset([n0, n1]))
        assert not b.knows(frozenset([n0]))
        b.insert(frozenset([n1]))
        # span now contains n0+n1 and n1, hence n0
        assert b.knows(frozenset([n0]))
        assert b.reduce(frozenset([n0, n2])) == frozenset([n2])

    def test_reduction_is_linear(self):
        # residual of xor equals xor of residuals
        b = ReceiverBasis()
        vecs = [
            frozenset([self.n(0, 0), self.n(1, 0)]),
            frozenset([self.n(1, 0), self.n(2, 0)]),
            frozenset([self.n(0, 1)]),
        ]
        for v in vecs:
            b.insert(v)
        x = frozenset([self.n(0, 0), self.n(2, 1)])
        y = frozenset([self.n(2, 0), self.n(2, 1), self.n(3, 0)])
        assert b.reduce(x) ^ b.reduce(y) == b.reduce(x ^ y)


class TestKeyContract:
    """The key types are an int (UserSet) and tuples (QueueIndex,
    NativePacketId): they hash and compare as those values."""

    KEYS = (U(0, 2), QueueIndex(U(2), U(0, 1)), NativePacketId(1, 7))

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_keeps_types(self, protocol):
        for key in self.KEYS:
            back = pickle.loads(pickle.dumps(key, protocol))
            assert back == key and type(back) is type(key)
            assert repr(back) == repr(key)
        qi = pickle.loads(pickle.dumps({self.KEYS[1]: 1}, protocol)).popitem()[0]
        assert type(qi.listeners) is UserSet and type(qi.destinations) is UserSet

    def test_userset_is_its_mask(self):
        s = U(0, 1)
        assert s == 3 and hash(s) == hash(3) and {3: "x"}[s] == "x"
        assert s.mask == 3 and type(s.mask) is int
        assert sorted([U(2), U(0, 1), U(0)]) == [U(0), U(0, 1), U(2)]  # as 1, 3, 4
        assert json.dumps([s]) == "[3]"

    def test_tuples_equal_their_fields(self):
        qi = QueueIndex(U(2), U(0, 1))
        assert qi == (U(2), U(0, 1)) == (4, 3) and hash(qi) == hash((4, 3))
        nid = NativePacketId(1, 7)
        assert nid == (1, 7) and hash(nid) == hash((1, 7))
        assert (nid.owner, nid.sequence) == (1, 7)

    def test_set_operators_return_usersets(self):
        a, b = U(0, 1), U(1, 2)
        for got, want in ((a | b, {0, 1, 2}), (a & b, {1}), (a - b, {0})):
            assert type(got) is UserSet and set(got) == want
        assert type(a | 4) is UserSet
        for plain in (a ^ b, ~a, a << 1):
            assert type(plain) is int

    def test_formatting(self):
        s = U(0, 2)
        assert repr(s) == str(s) == f"{s}" == "U{0,2}"
        assert repr(EMPTY) == "U{}"
        assert repr(QueueIndex(U(2), U(0, 1))) == "Q[2->0,1]"
        assert repr(NativePacketId(1, 7)) == "n1.7"

    def test_native_ids_sort_by_owner_then_sequence(self):
        ids = [NativePacketId(1, 0), NativePacketId(0, 5), NativePacketId(0, 2)]
        assert sorted(ids) == [(0, 2), (0, 5), (1, 0)]
        assert max(ids) == NativePacketId(1, 0)

    def test_negative_mask_rejected(self):
        with pytest.raises(ValueError, match="negative mask"):
            UserSet(-1)


def make_simple_state():
    """One packet in Q[2 -> 0,1] with both tokens, knowledge seeded."""
    st_ = NetworkState(3)
    n0 = st_.fresh_native(0)
    n1 = st_.fresh_native(1)
    qi = QueueIndex(U(2), U(0, 1))
    p = RealPacket(st_.fresh_pid(), frozenset([n0, n1]), qi)
    st_.append_packet(p)
    st_.append_token(Token(n0, p.pid, qi))
    st_.append_token(Token(n1, p.pid, qi))
    st_.bases[2].insert(p.constituents)  # listener reconstructs the composite
    st_.bases[0].insert(frozenset([n1]))  # destination 0 already knows n1
    st_.bases[1].insert(frozenset([n0]))
    return st_, p


class TestAuditState:
    def test_empty_state_clean(self):
        assert audit_state(NetworkState(3), deep=True) == []

    def test_arrivals_clean(self):
        s = NetworkState(3)
        for u in (0, 1, 1, 2):
            s.arrival(u)
        assert audit_state(s, deep=True) == []
        assert s.q_hat() == 4
        assert s.v_hat() == 4

    def test_constructed_state_clean(self):
        s, _ = make_simple_state()
        assert audit_state(s, deep=True) == []
        assert s.q_hat() == 1
        assert s.v_hat() == 2

    def test_counter_mismatch_detected(self):
        s, p = make_simple_state()
        key = (p.location, 0)
        s.counters[key] = 0
        assert any("counter-mismatch" in v for v in audit_state(s))

    def test_missing_token_detected(self):
        s, p = make_simple_state()
        tok = s.vqueue(p.location, 0)[0]
        s.remove_token(tok)
        assert any("misalignment" in v for v in audit_state(s))

    def test_duplicate_token_detected(self):
        s, p = make_simple_state()
        tok = s.vqueue(p.location, 0)[0]
        s.append_token(Token(tok.native, p.pid, p.location))
        assert any("duplicate token" in v for v in audit_state(s))

    def test_deep_knowledge_violation_detected(self):
        s, p = make_simple_state()
        s.bases[2].clear()  # listener 2 no longer knows the composite
        assert audit_state(s) == []  # shallow cannot see it
        assert any("listener 2" in v for v in audit_state(s, deep=True))

    def test_sandwich_bounds(self):
        s, _ = make_simple_state()
        q, v = s.q_hat(), s.v_hat()
        assert q <= v <= s.n_users * q


class TestRunningState:
    """The mutators keep running backlogs and pid and native indices for the
    shallow audit; a deep audit checks them against a walk of the queues."""

    def test_mutators_keep_running_state(self):
        s, p = make_simple_state()
        for u in (0, 1, 1, 2):
            s.arrival(u)
        head = s.queue(QueueIndex(EMPTY, U(1)))[0]
        s.remove_token(s.vqueue(head.location, 1)[0])
        s.remove_packet(head)
        assert (s.running_q_hat, s.running_v_hat) == (s.q_hat(), s.v_hat()) == (4, 5)
        assert s.packet(p.pid) is p and head.pid not in s.packets_by_pid
        assert sorted(s.tokens_by_native) == sorted(
            t.native for tokens in s.virtual_queues.values() for t in tokens
        )
        assert audit_state(s, deep=True) == []

    def test_decode_touches_a_pending_token(self):
        s, p = make_simple_state()
        assert audit_state(s) == []
        tok = s.vqueue(p.location, 0)[0]
        s.decode(0, tok.native)
        assert any("decoded native" in v for v in audit_state(s))

    def test_direct_counter_write_caught_by_deep_audit(self):
        s, p = make_simple_state()
        assert audit_state(s) == []
        s.counters[(p.location, 0)] += 1
        problems = audit_state(s, deep=True)
        assert any("counter-mismatch" in v for v in problems)
        assert "running backlog Q=1, V=2 differs from the walk's Q=1, V=3" in problems

    def test_direct_queue_write_caught_by_deep_audit(self):
        s, p = make_simple_state()
        assert audit_state(s) == []
        stray = RealPacket(s.fresh_pid(), p.constituents, p.location)
        s.real_queues[p.location].append(stray)
        assert audit_state(s) == []  # no mutator touched the queue
        problems = audit_state(s, deep=True)
        assert "running pid index differs from the real queues" in problems
        assert any("misalignment" in v for v in problems)
