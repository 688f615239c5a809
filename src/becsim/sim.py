"""Slotted-time simulation binding channel, catalog, movement and policy.

One slot loop, ``run``, drives either of two queue backends; they produce
identical per-slot metrics from the same seed:

* ``object`` — full packet/token/basis state with every invariant monitor
  available.  The reference engine: lengths, backlogs and packet sizes are
  read from that state, never from the compiled tables.  It owns every
  state audit, including the deep audit on entry to a transmission.
* ``counts`` — integer queue-occupancy vectors plus per-packet constituent
  counts.  Queue dynamics depend only on (control, reception set), which is
  precompiled into delta tables, so long stability runs stay cheap.  State
  audits and decode checks do not exist here; cross-engine equality is the
  check instead.

Compiling a catalog runs the movement rules once per (control, reception
set) to build the delta tables: one route (source, target or None) per
popped head.  The counts backend and the max-weight rows, folded with the
reception pmf, both read those routes.  For an exact pmf (no float entry)
selection compares the rows scaled to integers by the pmf's least common
denominator, so drift ties are exact and cheap; a float pmf keeps float
arithmetic, so its traces, and the float/rational tie difference, are those
of the unscaled rows.  A process keeps its last compiled catalog and hands
it to the next run with the same inputs.
"""

from __future__ import annotations

import gc
import os
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from fractions import Fraction
from math import factorial, lcm
from numbers import Rational
from typing import Optional

from .channel import ArrivalModel, ErasureModel, make_rng, sample_arrivals, sample_reception
from .coding import FULL, ControlCatalog, ControlSpec, _cc_pairs, enumerate_controls
from .core import (
    EMPTY,
    ConfigError,
    MonitorViolation,
    NetworkState,
    QueueIndex,
    UserSet,
    audit_state,
)
from .movement import ReceptionOutcome, RpmCase, apply_rpm, synthesize_state


@dataclass
class SimConfig:
    n_users: int
    horizon: int
    erasure: ErasureModel
    arrivals: ArrivalModel
    restriction: str = FULL
    seed: object = 0
    engine: str = "object"
    policy: str = "maxweight"
    retransmit_mode: str = "sticky"
    flush_on_empty: bool = True
    audit_every: int = 1
    deep_audit_every: int = 1000
    decode_monitor: bool = True
    overhead_monitor: bool = True
    decimate: int = 1  # trace row every k slots; 0 keeps no trace

    def validate(self):
        if self.horizon < 1:
            raise ConfigError("horizon must be at least 1")
        if self.n_users != self.erasure.n_users:
            raise ConfigError("erasure model user count mismatch")
        if len(self.arrivals.rates) != self.n_users:
            raise ConfigError("arrival model user count mismatch")
        if self.engine not in ("object", "counts"):
            raise ConfigError(f"unknown engine {self.engine!r}")
        if self.policy not in ("maxweight", "random"):
            raise ConfigError(f"unknown policy {self.policy!r}")
        if self.retransmit_mode not in ("sticky", "reselect"):
            raise ConfigError(f"unknown retransmit mode {self.retransmit_mode!r}")
        if self.decimate < 0 or self.audit_every < 0 or self.deep_audit_every < 0:
            raise ConfigError("cadence fields must be nonnegative")


@dataclass
class SlotMetrics:
    t: int
    q_hat: int
    v_hat: int
    delivered: tuple  # cumulative per user
    control: Optional[int]  # catalog index
    case: Optional[str]
    retransmit: bool
    flush: bool
    overhead: int  # constituent count of the transmitted composite


@dataclass
class RunResult:
    config: SimConfig
    trace: list
    arrivals_total: tuple
    delivered_total: tuple
    final_q_hat: int
    final_v_hat: int
    max_q_hat: int
    max_v_hat: int
    overhead_hist: dict
    max_stored_by_level: dict
    max_exit_by_level: dict
    flush_slots: int
    idle_slots: int
    window_means: tuple = ()
    state: object = None  # final NetworkState (object engine only)


# --- catalog compilation ------------------------------------------------------


@dataclass
class _Delta:
    case: str
    routes: tuple  # (src, dst | None) per popped head, in pop order
    merged: bool  # the popped heads form one fresh packet at their common dst
    deliveries: tuple  # (user, count)


@dataclass
class _CompiledControl:
    spec: ControlSpec
    queue_ids: tuple
    required_mask: int
    exit_level: int
    node_terms: tuple = ()  # ((src_q, ((tgt_q, p), ...)), ...)
    scaled_terms: tuple = ()  # node_terms with every p times _Compiled.scale
    deltas: Optional[dict] = None  # s_mask -> _Delta


@dataclass
class _Compiled:
    queues: tuple
    weights: tuple  # |D| per queue
    levels: tuple
    roots: tuple  # queue id of Q^{}_{i} per user
    controls: list
    scale: int  # common denominator of an exact pmf; 1 for floats


_SPACE_CACHE: dict = {}
_DELTA_CACHE: dict = {}


def _queue_space(n_users: int):
    space = _SPACE_CACHE.get(n_users)
    if space is None:
        queues = tuple(_cc_pairs(n_users))
        qidx = {qi: k for k, qi in enumerate(queues)}
        weights = tuple(len(qi.destinations) for qi in queues)
        levels = tuple(qi.level for qi in queues)
        roots = tuple(
            qidx[QueueIndex(EMPTY, UserSet.of(i))] for i in range(n_users)
        )
        space = (queues, qidx, weights, levels, roots)
        _SPACE_CACHE[n_users] = space
    return space


def _compile_deltas(catalog: ControlCatalog):
    """Run the movement rules once per (control, reception set) against a
    canonical one-packet-per-queue state; the only enumeration of them."""
    n_users = catalog.n_users
    cache_key = (n_users, catalog.restriction)
    if cache_key in _DELTA_CACHE:
        return _DELTA_CACHE[cache_key]
    _, qidx, _, _, _ = _queue_space(n_users)
    out = []
    for spec in catalog:
        pairs = spec.sorted_pairs
        entries = [(tuple(q.listeners), tuple(q.destinations)) for q in pairs]
        per_s = {}
        for s_mask in range(1 << n_users):
            state = synthesize_state(n_users, entries)
            plan = apply_rpm(
                state, spec, None, ReceptionOutcome(UserSet(s_mask))
            )
            merged_at = plan.merged[1] if plan.merged else None
            counts = {}
            for user, _native in plan.decoded:
                counts[user] = counts.get(user, 0) + 1
            per_s[s_mask] = _Delta(
                case=plan.case.value,
                # skip the minted composite's own entry; a delivered head's
                # target is None, which qidx.get keeps
                routes=tuple(
                    (qidx[frm], qidx.get(merged_at or to))
                    for _pid, frm, to in plan.real_moves
                    if frm is not None
                ),
                merged=merged_at is not None,
                deliveries=tuple(sorted(counts.items())),
            )
        out.append(per_s)
    _DELTA_CACHE[cache_key] = out
    return out


def _fold_terms(queues, cc: _CompiledControl, pmf: list) -> tuple:
    """Max-weight rows of one control, folded from its delta table.

    Node (q, i) is the token of user i in the head of queue q.  A routed
    head's token lands at (dst, i) when i is a destination of dst, and is
    delivered otherwise; a token whose queue was not popped stays put.
    Probabilities are summed in the order of the reception pmf's entries, as
    ``scheduler.derive_transitions`` does, so the rows equal its table with
    deliveries dropped, also for floats.
    """
    nodes = [(q, i) for q in cc.queue_ids for i in queues[q].destinations]
    buckets = [{} for _ in nodes]
    for s, p in pmf:
        went = dict(cc.deltas[s.mask].routes)
        for (q, i), bucket in zip(nodes, buckets):
            target = q
            if q in went:
                dst = went[q]
                delivered = dst is None or i not in queues[dst].destinations
                target = None if delivered else dst
            bucket[target] = bucket.get(target, 0) + p
    return tuple(
        (q, tuple((tgt, p) for tgt, p in bucket.items() if tgt is not None))
        for (q, _i), bucket in zip(nodes, buckets)
    )


def _scale_terms(controls, pmf) -> int:
    """Give each control its rows times the pmf's least common denominator
    D, all ints, and return D; a pmf with a float entry keeps its rows
    (D = 1), so float drifts stay bit-for-bit the unscaled ones."""
    if not all(isinstance(p, Rational) for _s, p in pmf):
        for cc in controls:
            cc.scaled_terms = cc.node_terms
        return 1
    scale = lcm(*(Fraction(p).denominator for _s, p in pmf))
    for cc in controls:
        cc.scaled_terms = tuple(
            (src, tuple((tgt, int(p * scale)) for tgt, p in row))
            for src, row in cc.node_terms
        )
    return scale


# (key, _Compiled) of the last compile in this process; runs only read it
_LAST_COMPILED: list = [None, None]


def compile_catalog(config: SimConfig) -> _Compiled:
    """Compile the catalog, or return the last compile when its inputs
    are equal (the pmf compared with its entries' types, so a float and an
    equal rational never share one)."""
    pmf = list(config.erasure.pmf())
    # the engine matters only through whether the delta tables are built
    with_deltas = config.engine == "counts" or config.policy == "maxweight"
    key = (
        config.n_users,
        config.restriction,
        with_deltas,
        config.policy,
        tuple((s.mask, type(p), p) for s, p in pmf),
    )
    if _LAST_COMPILED[0] == key:
        return _LAST_COMPILED[1]
    n = config.n_users
    catalog = enumerate_controls(n, config.restriction)
    queues, qidx, weights, levels, roots = _queue_space(n)
    controls = []
    for spec in catalog:
        ids = tuple(qidx[qi] for qi in spec.sorted_pairs)
        mask = 0
        for q in ids:
            mask |= 1 << q
        controls.append(
            _CompiledControl(
                spec=spec,
                queue_ids=ids,
                required_mask=mask,
                exit_level=max(qi.level for qi in spec.sorted_pairs),
            )
        )
    if with_deltas:
        for cc, deltas in zip(controls, _compile_deltas(catalog)):
            cc.deltas = deltas
    scale = 1
    if config.policy == "maxweight":
        for cc in controls:
            cc.node_terms = _fold_terms(queues, cc, pmf)
        scale = _scale_terms(controls, pmf)
    compiled = _Compiled(queues, weights, levels, roots, controls, scale)
    _LAST_COMPILED[:] = key, compiled
    return compiled


def _select(compiled: _Compiled, lengths, nonzero_mask, policy, rng):
    """The first eligible control of largest reward, all rewards times
    compiled.scale (exact in ints for an exact pmf)."""
    controls = compiled.controls
    scale = compiled.scale
    eligible = [
        idx
        for idx, cc in enumerate(controls)
        if cc.required_mask & nonzero_mask == cc.required_mask
    ]
    if not eligible:
        return None
    if policy == "random":
        return eligible[rng.randrange(len(eligible))]
    best = None
    best_reward = None
    for idx in eligible:
        reward = 0
        for src, row in controls[idx].scaled_terms:
            drift = scale * lengths[src]
            for tgt, p in row:
                drift -= p * lengths[tgt]
            if drift > 0:
                reward += drift
        if best is None or reward > best_reward:
            best, best_reward = idx, reward
    return best


# --- engines -------------------------------------------------------------------


def _stored_cap(level: int) -> int:
    return 1 if level <= 1 else factorial(level - 1)


def _due(every: int, t: int) -> bool:
    """Whether a cadence of every k slots (0: never) falls on slot t."""
    return bool(every) and t % every == 0


class _ObjectQueues:
    """Reference backend: the full packet/token/basis state, audited.

    Lengths, backlogs and packet sizes are read from the NetworkState, never
    from the delta tables, so cross-engine equality checks those tables.
    """

    def __init__(self, config: SimConfig, compiled: _Compiled):
        self.config = config
        self.n_queues = len(compiled.queues)
        self.qidx = _queue_space(config.n_users)[1]
        self.state = NetworkState(config.n_users)

    def scan(self):
        """Queue lengths in queue-id order and the mask of non-empty ids."""
        lengths = [0] * self.n_queues
        nonzero = 0
        for qi, packets in self.state.real_queues.items():
            k = self.qidx[qi]
            lengths[k] = len(packets)
            nonzero |= 1 << k
        return lengths, nonzero

    def head_size(self, cc: _CompiledControl) -> int:
        """Constituent count of the XOR of the control's head packets."""
        real = self.state.real_queues
        composite: frozenset = frozenset()
        for qi in cc.spec.sorted_pairs:
            composite = composite ^ real[qi][0].constituents
        return len(composite)

    def transmit(self, cc: _CompiledControl, s: UserSet, t: int):
        """Move the heads for reception set s.  Returns the case label,
        (user, count) deliveries and the (level, size) of every packet
        stored this slot (sizes only when the overhead monitor is on)."""
        config = self.config
        state = self.state
        if _due(config.deep_audit_every, t):
            self._check(t, deep=True)
        plan = apply_rpm(state, cc.spec, None, ReceptionOutcome(s))
        if config.decode_monitor:
            for user, native in plan.decoded:
                if native.owner != user or native not in state.decoded[user]:
                    raise MonitorViolation(
                        [f"user {user} failed to decode {native!r}"], slot=t
                    )
        stored = []
        if config.overhead_monitor:
            for pid, _frm, to in plan.real_moves:
                if to is not None:
                    packet = next(p for p in state.queue(to) if p.pid == pid)
                    stored.append((to.level, len(packet.constituents)))
        deliveries = [(user, 1) for user, _native in plan.decoded]
        return plan.case.value, deliveries, stored

    def arrive(self, user: int, count: int) -> None:
        for _ in range(count):
            self.state.arrival(user)

    def flush(self) -> None:
        assert self.state.v_hat() == 0
        for basis in self.state.bases:
            basis.clear()

    def audit(self, t: int) -> None:
        # the deep audit runs every shallow check too
        deep = _due(self.config.deep_audit_every, t)
        if deep or _due(self.config.audit_every, t):
            self._check(t, deep)

    def _check(self, t: int, deep: bool) -> None:
        problems = audit_state(self.state, deep=deep)
        if problems:
            raise MonitorViolation(problems, slot=t)

    def totals(self):
        return self.state.q_hat(), self.state.v_hat()


class _CountQueues:
    """Fast backend: occupancy vectors plus per-packet constituent counts,
    moved by the compiled (control, reception set) delta tables.  It has no
    packets to audit; cross-engine equality is its check."""

    state = None

    def __init__(self, config: SimConfig, compiled: _Compiled):
        nq = len(compiled.queues)
        self.weights = compiled.weights
        self.levels = compiled.levels
        self.roots = compiled.roots
        self.lengths = [0] * nq
        self.sizes = [deque() for _ in range(nq)]
        self.nonzero = 0
        self.q_hat = self.v_hat = 0

    def scan(self):
        return self.lengths, self.nonzero

    def head_size(self, cc: _CompiledControl) -> int:
        return sum(self.sizes[q][0] for q in cc.queue_ids)

    def transmit(self, cc: _CompiledControl, s: UserSet, t: int):
        delta = cc.deltas[s.mask]
        popped = []
        for q, _dst in delta.routes:
            popped.append(self.sizes[q].popleft())
            self.lengths[q] -= 1
            self.q_hat -= 1
            self.v_hat -= self.weights[q]
            if not self.lengths[q]:
                self.nonzero &= ~(1 << q)
        if delta.merged:
            pushes = [(delta.routes[0][1], sum(popped))]
        else:
            pushes = [
                (dst, size)
                for (_q, dst), size in zip(delta.routes, popped)
                if dst is not None
            ]
        for q, size in pushes:
            self._push(q, size)
        stored = [(self.levels[q], size) for q, size in pushes]
        return delta.case, delta.deliveries, stored

    def _push(self, q: int, size: int) -> None:
        self.sizes[q].append(size)
        self.lengths[q] += 1
        self.q_hat += 1
        self.v_hat += self.weights[q]
        self.nonzero |= 1 << q

    def arrive(self, user: int, count: int) -> None:
        for _ in range(count):
            self._push(self.roots[user], 1)

    def flush(self) -> None:
        pass  # no receiver stores to clear

    def audit(self, t: int) -> None:
        pass

    def totals(self):
        return self.q_hat, self.v_hat


def run(config: SimConfig, *, windows=()) -> RunResult:
    """Simulate config.horizon slots; optional windows are (start, stop)
    slot ranges whose mean backlog is folded on the fly.

    Per slot: select (or repeat a sticky control), check the transmitted
    composite's size, draw the reception set, move the heads, audit, and
    draw arrivals.  Flush and idle slots draw no channel randomness.
    """
    config.validate()
    compiled = compile_catalog(config)
    backend = _ObjectQueues if config.engine == "object" else _CountQueues
    queues = backend(config, compiled)
    n = config.n_users
    chan = make_rng(config.seed, "chan")
    arr = make_rng(config.seed, "arr")
    pol = make_rng(config.seed, "policy")

    delivered = [0] * n
    arrived = [0] * n
    pending = None
    transmitted_since_flush = False
    trace = []
    overhead_hist: dict = {}
    max_stored: dict = {}
    max_exit: dict = {}
    flush_slots = idle_slots = 0
    q_hat = v_hat = max_q = max_v = 0
    folds = [[int(lo), int(hi), 0] for lo, hi in windows]

    for t in range(config.horizon):
        sticky = pending is not None and config.retransmit_mode == "sticky"
        if sticky:
            cidx = pending
        else:
            lengths, nonzero = queues.scan()
            cidx = _select(compiled, lengths, nonzero, config.policy, pol)
        flush = False
        case = None
        overhead = 0
        if cidx is None:
            if config.flush_on_empty and transmitted_since_flush and q_hat == 0:
                queues.flush()
                flush = True
                flush_slots += 1
                transmitted_since_flush = False
            else:
                idle_slots += 1
        else:
            cc = compiled.controls[cidx]
            overhead = queues.head_size(cc)
            if config.overhead_monitor and overhead > factorial(cc.exit_level):
                raise MonitorViolation(
                    [
                        f"composite of {overhead} constituents exits level "
                        f"{cc.exit_level}"
                    ],
                    slot=t,
                )
            s = sample_reception(config.erasure, chan)
            case, deliveries, stored = queues.transmit(cc, s, t)
            transmitted_since_flush = True
            pending = cidx if case == RpmCase.RETRANSMIT.value else None
            for user, count in deliveries:
                delivered[user] += count
            if config.overhead_monitor:
                for level, size in stored:
                    if size > _stored_cap(level):
                        raise MonitorViolation(
                            [f"stored packet of {size} constituents at level {level}"],
                            slot=t,
                        )
                    if size > max_stored.get(level, 0):
                        max_stored[level] = size
            overhead_hist[overhead] = overhead_hist.get(overhead, 0) + 1
            if overhead > max_exit.get(cc.exit_level, 0):
                max_exit[cc.exit_level] = overhead
        queues.audit(t)
        batch = sample_arrivals(config.arrivals, arr)
        for user, count in enumerate(batch):
            arrived[user] += count
            queues.arrive(user, count)
        q_hat, v_hat = queues.totals()
        max_q = max(max_q, q_hat)
        max_v = max(max_v, v_hat)
        for f in folds:
            if f[0] <= t < f[1]:
                f[2] += q_hat
        if config.decimate and t % config.decimate == 0:
            trace.append(
                SlotMetrics(
                    t,
                    q_hat,
                    v_hat,
                    tuple(delivered),
                    cidx,
                    case,
                    sticky,
                    flush,
                    overhead,
                )
            )
    assert sum(delivered) + v_hat == sum(arrived)
    return RunResult(
        config=config,
        trace=trace,
        arrivals_total=tuple(arrived),
        delivered_total=tuple(delivered),
        final_q_hat=q_hat,
        final_v_hat=v_hat,
        max_q_hat=max_q,
        max_v_hat=max_v,
        overhead_hist=overhead_hist,
        max_stored_by_level=max_stored,
        max_exit_by_level=max_exit,
        flush_slots=flush_slots,
        idle_slots=idle_slots,
        window_means=tuple(f[2] / (f[1] - f[0]) for f in folds),
        state=queues.state,
    )


# --- stability probe -------------------------------------------------------


def worker_count(requested=None, task_count=None) -> int:
    cap = requested
    if cap is None:
        env = os.environ.get("BECSIM_THREADS", "")
        try:
            cap = int(env) if env else (os.cpu_count() or 1)
        except ValueError as err:
            raise ConfigError(
                f"BECSIM_THREADS must be an integer, not {env!r}"
            ) from err
    if task_count is not None:
        cap = min(cap, task_count)
    return max(1, cap)


def _probe_task(args):
    config, window = args
    result = run(
        config,
        windows=((window // 2, window), (3 * window // 2, 2 * window)),
    )
    early, late = result.window_means
    return early, late, result.max_q_hat


def stability_probe(
    config: SimConfig,
    ray,
    scales,
    *,
    seeds: int = 5,
    window: int = 100_000,
    slope_threshold: float = 1e-3,
    workers: Optional[int] = None,
) -> list:
    """Classify each scaled ray as bounded or growing via a windowed-mean
    slope test, majority-voted across seeded runs on the counts engine."""
    from .regions import outer_bound_margin

    if seeds < 1 or not scales:
        raise ConfigError("a probe needs at least one scale and one seed")
    margin = outer_bound_margin(ray, config.erasure)
    if margin <= 0:
        raise ConfigError("ray has zero margin; nothing to scale")
    base = tuple(r / margin for r in ray)
    scaled = [tuple(float(scale * b) for b in base) for scale in scales]
    tasks = []
    for scale, rates in zip(scales, scaled):
        if any(r > 1 for r in rates):
            raise ConfigError(f"scaled rate above 1 at scale {scale}")
        for k in range(seeds):
            task = replace(
                config,
                horizon=2 * window,
                arrivals=ArrivalModel.bernoulli(rates),
                seed=f"{config.seed}/probe/{scale}/{k}",
                engine="counts",
                audit_every=0,
                deep_audit_every=0,
                decode_monitor=False,
                overhead_monitor=False,
                decimate=0,
            )
            tasks.append((task, window))
    n_workers = worker_count(workers, len(tasks))
    if n_workers == 1:
        outcomes = [_probe_task(t) for t in tasks]
    else:
        gc.collect()  # forked workers copy the heap, uncollected cycles too
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            outcomes = list(pool.map(_probe_task, tasks))
    reports = []
    for si, scale in enumerate(scales):
        chunk = outcomes[si * seeds : (si + 1) * seeds]
        slopes = [(late - early) / window for early, late, _ in chunk]
        verdicts = [
            "bounded" if slope < slope_threshold else "growing"
            for slope in slopes
        ]
        bounded = verdicts.count("bounded")
        growing = verdicts.count("growing")
        if bounded > growing:
            overall = "bounded"
        elif growing > bounded:
            overall = "growing"
        else:
            overall = "inconclusive"
        reports.append(
            {
                "scale": scale,
                "rates": scaled[si],
                "slopes": slopes,
                "max_q": max(m for _, _, m in chunk),
                "verdicts": verdicts,
                "verdict": overall,
            }
        )
    return reports


def summarize(result: RunResult) -> dict:
    """JSON-ready digest of one run."""
    config = result.config
    return {
        "n_users": config.n_users,
        "horizon": config.horizon,
        "engine": config.engine,
        "policy": config.policy,
        "restriction": config.restriction,
        "seed": str(config.seed),
        "arrivals_total": list(result.arrivals_total),
        "delivered_total": list(result.delivered_total),
        "final_q_hat": result.final_q_hat,
        "final_v_hat": result.final_v_hat,
        "max_q_hat": result.max_q_hat,
        "max_v_hat": result.max_v_hat,
        "overhead_hist": {str(k): v for k, v in sorted(result.overhead_hist.items())},
        "max_stored_by_level": {
            str(k): v for k, v in sorted(result.max_stored_by_level.items())
        },
        "max_exit_by_level": {
            str(k): v for k, v in sorted(result.max_exit_by_level.items())
        },
        "flush_slots": result.flush_slots,
        "idle_slots": result.idle_slots,
    }
