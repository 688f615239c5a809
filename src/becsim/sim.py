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

Compiling a catalog gives each control one delta table and one int table,
the same for every engine and policy.  The delta table is
``scheduler.deltas_of``: the plan of every reception set, routes mapped to
queue ids, one route (source, target or None) per popped head, planned
once per process and shared with ``derive_transitions``.  The counts
backend moves along those routes; the object engine carries the same plans
out through ``apply_rpm``.  The erasure model holds exact values only (a
float reads as its decimal), so each probability times the pmf's least
common denominator D is an int, and the max-weight rows are
``scheduler.fold_landings`` of the routes with those ints, deliveries
dropped: the transition table times D.  Drift ties are exact and cheap,
and catalog order breaks them for any input type.  A process keeps its
last compile and hands it to the next run with the same users, catalog and
pmf.

Selection is incremental.  The compile keeps, per queue id, a readers mask:
the controls whose rows read that queue as a source or a target.  Each
backend's ``scan`` also returns the mask of queue ids whose length changed
since the last scan, and a run keeps a reward memo: every control's int
reward, a dirty mask of controls whose reward may be stale (the readers of
the changed queues), and the eligible list with the non-empty mask it was
built for.  A slot recomputes only the dirty eligible rewards, so selection
stays exact and picks what a full recomputation picks.  A monitor violation
names the slot, control, reception set, case and the run's seed.
"""

from __future__ import annotations

import gc
import os
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from math import factorial
from typing import Optional

from .channel import ArrivalModel, ErasureModel, make_rng, sample_arrivals, sample_reception
from .coding import FULL, ControlSpec, enumerate_controls
from .core import (
    ConfigError,
    MonitorViolation,
    NetworkState,
    UserSet,
    audit_state,
)
from .movement import ReceptionOutcome, RpmCase, apply_rpm
from .scheduler import _queue_space, deltas_of, fold_landings, scaled_pmf


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
class _CompiledControl:
    index: int  # position in the catalog
    spec: ControlSpec
    queue_ids: tuple
    required_mask: int
    rows: tuple  # ((src_q, ((tgt_q, p times _Compiled.scale), ...)), ...)
    deltas: dict  # s_mask -> _Delta


@dataclass
class _Compiled:
    queues: tuple
    weights: tuple  # |D| per queue
    levels: tuple
    roots: tuple  # queue id of Q^{}_{i} per user
    controls: list
    scale: int  # the pmf's least common denominator
    readers: tuple  # per queue id, the mask of controls whose rows read it


# (key, _Compiled) of the last compile in this process; runs only read it
_LAST_COMPILED: list = [None, None]


def compile_catalog(config: SimConfig) -> _Compiled:
    """Compile the catalog, or return the last compile when its inputs
    are equal.  Every engine and policy reads the same compile."""
    pmf = list(config.erasure.pmf())
    key = (config.n_users, config.restriction, tuple(pmf))
    if _LAST_COMPILED[0] == key:
        return _LAST_COMPILED[1]
    n = config.n_users
    queues, qidx, weights, levels, roots = _queue_space(n)
    scale, pmf_ints = scaled_pmf(config.erasure)
    controls = []
    readers = [0] * len(queues)
    for index, spec in enumerate(enumerate_controls(n, config.restriction)):
        ids = tuple(qidx[qi] for qi in spec.sorted_pairs)
        deltas = deltas_of(spec, n)
        # the landing fold by queue id, deliveries dropped: the rows equal
        # derive_transitions' table without its deliveries, times scale
        nodes, buckets = fold_landings(queues, ids, deltas, pmf_ints)
        rows = tuple(
            (q, tuple((tgt[0], w) for tgt, w in bucket.items() if tgt is not None))
            for (q, _i), bucket in zip(nodes, buckets)
        )
        mask = sum(1 << q for q in ids)
        bit = 1 << index
        for src, row in rows:
            readers[src] |= bit
            for tgt, _w in row:
                readers[tgt] |= bit
        controls.append(_CompiledControl(index, spec, ids, mask, rows, deltas))
    compiled = _Compiled(
        queues, weights, levels, roots, controls, scale, tuple(readers)
    )
    _LAST_COMPILED[:] = key, compiled
    return compiled


class _SelectMemo:
    """One run's selection state: the int reward of every control, the mask
    of controls whose reward may be stale, and the eligible controls (list
    and mask) for the non-empty mask they were built for."""

    __slots__ = (
        "readers", "rewards", "dirty", "nonzero", "eligible", "eligible_mask"
    )

    def __init__(self, compiled: _Compiled):
        self.readers = compiled.readers
        self.rewards = [0] * len(compiled.controls)
        self.dirty = (1 << len(compiled.controls)) - 1
        self.nonzero = None
        self.eligible = []
        self.eligible_mask = 0

    def touch(self, changed: int) -> None:
        """Mark stale every control that reads a queue in the changed mask."""
        readers = self.readers
        dirty = self.dirty
        while changed:
            low = changed & -changed
            dirty |= readers[low.bit_length() - 1]
            changed ^= low
        self.dirty = dirty


def _select(compiled: _Compiled, lengths, nonzero_mask, policy, rng, memo=None):
    """The first eligible control of largest reward, all rewards times
    compiled.scale (exact ints).  A memo carries rewards from the last call;
    without one every reward is computed."""
    if memo is None:
        memo = _SelectMemo(compiled)
    if memo.nonzero != nonzero_mask:
        eligible = [
            cc.index
            for cc in compiled.controls
            if cc.required_mask & nonzero_mask == cc.required_mask
        ]
        memo.nonzero = nonzero_mask
        memo.eligible = eligible
        memo.eligible_mask = sum(1 << idx for idx in eligible)
    eligible = memo.eligible
    if not eligible:
        return None
    if policy == "random":
        return eligible[rng.randrange(len(eligible))]
    rewards = memo.rewards
    todo = memo.dirty & memo.eligible_mask
    if todo:
        memo.dirty ^= todo
        controls = compiled.controls
        scale = compiled.scale
        while todo:
            low = todo & -todo
            idx = low.bit_length() - 1
            todo ^= low
            reward = 0
            for src, row in controls[idx].rows:
                drift = scale * lengths[src]
                for tgt, p in row:
                    drift -= p * lengths[tgt]
                if drift > 0:
                    reward += drift
            rewards[idx] = reward
    return max(eligible, key=rewards.__getitem__)


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
        self.last = [0] * self.n_queues, 0  # lengths and nonzero at the last scan

    def scan(self):
        """Queue lengths in queue-id order, the mask of non-empty ids and the
        mask of ids whose length changed since the last scan."""
        lengths = [0] * self.n_queues
        last, last_nonzero = self.last
        nonzero = changed = 0
        for qi, packets in self.state.real_queues.items():
            k = self.qidx[qi]
            lengths[k] = size = len(packets)
            nonzero |= 1 << k
            if size != last[k]:
                changed |= 1 << k
        # an emptied queue has no entry in real_queues
        changed |= last_nonzero & ~nonzero
        self.last = lengths, nonzero
        return lengths, nonzero, changed

    def head_size(self, cc: _CompiledControl) -> int:
        """Constituent count of the XOR of the control's head packets."""
        real = self.state.real_queues
        composite: frozenset = frozenset()
        for qi in cc.spec.sorted_pairs:
            composite = composite ^ real[qi][0].constituents
        return len(composite)

    def transmit(self, cc: _CompiledControl, s: UserSet, t: int):
        """Move the heads for reception set s.  Returns the case label,
        the users that decode and the (level, size) of every packet
        stored this slot (sizes only when the overhead monitor is on)."""
        config = self.config
        state = self.state
        if _due(config.deep_audit_every, t):
            self._check(t, True, cc.index, int(s), None)
        plan = apply_rpm(state, cc.spec, None, ReceptionOutcome(s))
        if config.decode_monitor:
            for user, native in plan.decoded:
                if native.owner != user or native not in state.decoded[user]:
                    raise MonitorViolation(
                        [f"user {user} failed to decode {native!r}"],
                        slot=t,
                        control=cc.index,
                        received=int(s),
                        case=plan.case.value,
                    )
        stored = []
        if config.overhead_monitor:
            for pid, _frm, to in plan.real_moves:
                if to is not None:
                    packet = next(p for p in state.queue(to) if p.pid == pid)
                    stored.append((to.level, len(packet.constituents)))
        return plan.case.value, [user for user, _ in plan.decoded], stored

    def arrive(self, user: int, count: int) -> None:
        for _ in range(count):
            self.state.arrival(user)

    def flush(self) -> None:
        assert self.state.v_hat() == 0
        for basis in self.state.bases:
            basis.clear()

    def audit(self, t: int, control, received, case) -> None:
        # the deep audit runs every shallow check too
        deep = _due(self.config.deep_audit_every, t)
        if deep or _due(self.config.audit_every, t):
            self._check(t, deep, control, received, case)

    def _check(self, t: int, deep: bool, control, received, case) -> None:
        problems = audit_state(self.state, deep=deep)
        if problems:
            raise MonitorViolation(
                problems, slot=t, control=control, received=received, case=case
            )

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
        self.last = [0] * nq  # lengths at the last scan, for touched ids
        self.sizes = [deque() for _ in range(nq)]
        self.nonzero = 0
        self.touched = 0  # ids popped or pushed since the last scan
        self.q_hat = self.v_hat = 0

    def scan(self):
        """The live lengths, the mask of non-empty ids and the mask of ids
        whose length changed since the last scan."""
        lengths, last = self.lengths, self.last
        touched = self.touched
        changed = 0
        while touched:
            low = touched & -touched
            q = low.bit_length() - 1
            touched ^= low
            if lengths[q] != last[q]:
                last[q] = lengths[q]
                changed |= low
        self.touched = 0
        return lengths, self.nonzero, changed

    def head_size(self, cc: _CompiledControl) -> int:
        return sum(self.sizes[q][0] for q in cc.queue_ids)

    def transmit(self, cc: _CompiledControl, s: UserSet, t: int):
        delta = cc.deltas[s]
        popped = []
        for q, _dst in delta.routes:
            popped.append(self.sizes[q].popleft())
            self.lengths[q] -= 1
            self.q_hat -= 1
            self.v_hat -= self.weights[q]
            self.touched |= 1 << q
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
        self.touched |= 1 << q

    def arrive(self, user: int, count: int) -> None:
        for _ in range(count):
            self._push(self.roots[user], 1)

    def flush(self) -> None:
        pass  # no receiver stores to clear

    def audit(self, t: int, control, received, case) -> None:
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
    memo = _SelectMemo(compiled)

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

    try:
        for t in range(config.horizon):
            sticky = pending is not None and config.retransmit_mode == "sticky"
            if sticky:
                cidx = pending
            else:
                lengths, nonzero, changed = queues.scan()
                memo.touch(changed)
                cidx = _select(compiled, lengths, nonzero, config.policy, pol, memo)
            flush = False
            case = received = None
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
                exit_level = cc.spec.exit_level
                overhead = queues.head_size(cc)
                if config.overhead_monitor and overhead > factorial(exit_level):
                    raise MonitorViolation(
                        [
                            f"composite of {overhead} constituents exits level "
                            f"{exit_level}"
                        ],
                        slot=t,
                        control=cidx,
                    )
                s = sample_reception(config.erasure, chan)
                received = int(s)
                case, deliveries, stored = queues.transmit(cc, s, t)
                transmitted_since_flush = True
                pending = cidx if case == RpmCase.RETRANSMIT.value else None
                for user in deliveries:
                    delivered[user] += 1
                if config.overhead_monitor:
                    for level, size in stored:
                        if size > _stored_cap(level):
                            raise MonitorViolation(
                                [
                                    f"stored packet of {size} constituents "
                                    f"at level {level}"
                                ],
                                slot=t,
                                control=cidx,
                                received=received,
                                case=case,
                            )
                        if size > max_stored.get(level, 0):
                            max_stored[level] = size
                overhead_hist[overhead] = overhead_hist.get(overhead, 0) + 1
                if overhead > max_exit.get(exit_level, 0):
                    max_exit[exit_level] = overhead
            queues.audit(t, cidx, received, case)
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
    except MonitorViolation as err:
        err.seed = config.seed
        raise
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
