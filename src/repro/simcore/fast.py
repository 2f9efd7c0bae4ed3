"""Profile-guided fast core: a bit-identical drop-in for MCDProcessor.

``FastMCDProcessor`` produces *exactly* the same ``SimulationResult`` -- the
same floats, the same ``FrequencyStepEvent`` sequence, the same probe-event
stream -- as the reference ``MCDProcessor``.  It gets its >=2x throughput
purely from how the same arithmetic is dispatched, never from changing it:

* **one megaloop** -- ``run()`` inlines the reference's per-event call tree
  (clock advance, front-end fetch/dispatch, execution-domain issue, LS memory
  access, wake/sleep bookkeeping) into a single function whose state lives in
  local variables, eliminating ~20 attribute/property/method dispatches per
  simulated event;
* **trace-parallel arrays** -- per-instruction latency, busy time, FU pool,
  domain tag, store/branch flags are precomputed once per trace, replacing
  per-issue enum-keyed dict lookups (enum ``__hash__`` is Python-level and
  profiled as ~8% of reference wall time);
* **tag-indexed wake scheduler** -- :class:`repro.simcore.wheel.EventWheel`
  lists replace the ``Dict[DomainId, ...]`` sleep/timer/generation maps;
* **lookup tables** -- :class:`repro.simcore.tables.SimTables` memoizes
  V(f), 1/f, per-cycle energy coefficients and per-sample background energy,
  keyed by the exact float inputs so a table hit returns the bit-exact value
  the reference would recompute;
* **allocation-free sampling** -- occupancies latch into scalars, the
  issue scan reuses one buffer, and history appends go through pre-bound
  methods; the only dict built per sample is the probe-emission payload, and
  only when the observability layer is attached;
* **parked clocks** -- a clock whose next edges can only spin (an issue
  queue waiting on a producer that has not issued, a front end behind an
  unissued mispredicted branch or done dispatching the trace) leaves the
  heap; a tight loop before each pop replays its owed edges until a
  completion, a dispatch, its time bound or a relock pause puts it back.

The bit-identical contract imposes hard rules on every edit here: float
expressions must keep the reference's operand order and association
(``(leak + gated) * dt`` is not ``leak*dt + gated*dt``); the inlined
``Random.gauss`` must keep the reference's draw count and order per clock
and hand its cached second variate (``gauss_next``) back to the clock's rng;
and events must pop in the reference's ``(time, tag)`` order.  Heap pushes
keep the reference's relative order, so sequence numbers still break ties
between equal ``(time, tag)`` entries as the reference's do; parked clocks
push fewer events, so the final ``seq`` is lower than the reference's.
Golden-equivalence tests in ``tests/simcore/`` enforce the contract for
every controller style.
"""

from __future__ import annotations

from heapq import heappop, heappush
from math import ceil, cos, log, pi, sin, sqrt
from time import perf_counter
from typing import Optional

from repro.mcd.domains import (
    CONTROLLED_DOMAINS,
    FU_LATENCY_CYCLES,
    DomainId,
    execution_domain,
)
from repro.mcd.processor import (
    _EDGE_TAG,
    MCDProcessor,
    SimulationResult,
)
from repro.mcd.queues import QueueEntry
from repro.mcd.rob import RobEntry
from repro.simcore.markers import hot_path
from repro.simcore.tables import SimTables, tables_for
from repro.simcore.wheel import EventWheel
from repro.workloads.instructions import InstructionKind as K

_INF = float("inf")
#: ``random.TWOPI``, the constant ``Random.gauss`` scales its first draw by
_TWOPI = 2.0 * pi

#: kinds served by the muldiv pool (mirrors ExecutionDomain._pool_for)
_MULDIV_KINDS = frozenset({K.INT_MUL, K.INT_DIV, K.FP_MUL, K.FP_DIV, K.FP_SQRT})
#: kinds whose FU accepts a new op every cycle (mirrors execcore._PIPELINED)
_PIPELINED = frozenset({K.INT_ALU, K.BRANCH, K.FP_ADD, K.FP_MUL, K.INT_MUL})
#: per kind, one row of the trace-parallel arrays: (latency cycles, busy
#: cycles, domain edge tag, muldiv?, store?, branch?)
_KIND_ROWS = {
    kind: (
        FU_LATENCY_CYCLES[kind],
        1 if kind in _PIPELINED else FU_LATENCY_CYCLES[kind],
        _EDGE_TAG[execution_domain(kind)],
        1 if kind in _MULDIV_KINDS else 0,
        1 if kind is K.STORE else 0,
        1 if kind is K.BRANCH else 0,
    )
    for kind in K
}


class FastMCDProcessor(MCDProcessor):
    """The fast core.  Construction and results match MCDProcessor exactly."""

    def __init__(self, *args: object, tables: Optional[SimTables] = None, **kwargs: object) -> None:
        super().__init__(*args, **kwargs)  # type: ignore[arg-type]
        self._tables = (
            tables if tables is not None else tables_for(self.config, self.power)
        )
        # Shared event wheel: replaces the base heap and the enum-keyed
        # wake/sleep dicts.  The base dicts stay as (synced) views so
        # external introspection keeps working.
        self._wheel = EventWheel()
        self._heap = self._wheel.heap

        # --- trace-parallel instruction arrays (index = inst.index) -------
        trace = self.trace
        n = 0
        for inst in trace:
            if inst.index >= n:
                n = inst.index + 1
        lat = [0] * n
        busy = [0] * n
        tags = bytearray(n)
        muldiv = bytearray(n)
        is_store = bytearray(n)
        is_branch = bytearray(n)
        rows = _KIND_ROWS
        for inst in trace:
            i = inst.index
            lat[i], busy[i], tags[i], muldiv[i], is_store[i], is_branch[i] = rows[
                inst.kind
            ]
        self._lat_arr = lat
        self._busy_arr = busy
        self._tag_arr = tags
        self._muldiv_arr = muldiv
        self._store_arr = is_store
        self._branch_arr = is_branch

        # --- per-sample row structures (built once, iterated per sample) --
        self._ctrl_rows = [
            (_EDGE_TAG[d], d, self.controllers[d], self.regulators[d])
            for d in CONTROLLED_DOMAINS
            if self.controllers.get(d) is not None
        ]
        self._slew_rows = [
            (_EDGE_TAG[d], self.regulators[d]) for d in CONTROLLED_DOMAINS
        ]
        self._rec_rows = [
            (
                _EDGE_TAG[d],
                self.history.occupancy[d].append,
                self.history.frequency_ghz[d].append,
                self.history.issued[d].append,
                self.regulators[d],
                self.domains[d],
            )
            for d in CONTROLLED_DOMAINS
        ]
        # last-seen voltage per tag: skips coefficient refresh while steady
        self._coeff_v = [
            self.config.v_max,
            self.regulators[DomainId.INT].voltage,
            self.regulators[DomainId.FP].voltage,
            self.regulators[DomainId.LS].voltage,
        ]
        # last-seen (voltage, freq) per tag for the background-energy pair
        self._bg_v: list = [None, None, None, None]
        self._bg_f: list = [None, None, None, None]
        self._bg_awake = [0.0, 0.0, 0.0, 0.0]
        self._bg_asleep = [0.0, 0.0, 0.0, 0.0]
        # reused buffers: the allocation-free sample/issue paths
        self._occ_buf = [0, 0, 0, 0]
        self._issued_buf: list = []

    # ------------------------------------------------------------------
    # cold-path overrides: keep the wheel and the reference-dict views in
    # sync when the processor is poked outside run() (tests, tooling)
    # ------------------------------------------------------------------

    def _push(self, time_ns: float, tag: int, payload: int = 0) -> None:
        self._wheel.push(time_ns, tag, payload)
        self._seq = self._wheel.seq

    def _wake(self, domain: DomainId, wake_ns: float) -> None:
        tag = _EDGE_TAG[domain]
        self._wheel.wake(tag)
        self._sleeping[domain] = False
        self._timer_target[domain] = None
        self._wake_gen[domain] = self._wheel.wake_gen[tag]
        clock = self.clocks[domain]
        clock.skip_to(wake_ns)
        self._push(clock.next_edge_ns, tag)

    def _sleep(self, domain: DomainId, now_ns: float, timer_ns: Optional[float]) -> None:
        tag = _EDGE_TAG[domain]
        self._wheel.sleep(tag, timer_ns)
        self._seq = self._wheel.seq
        self._sleeping[domain] = True
        self._timer_target[domain] = timer_ns
        self._wake_gen[domain] = self._wheel.wake_gen[tag]

    def _on_dispatch(self, domain: DomainId, entry) -> None:
        tag = _EDGE_TAG[domain]
        if not self._wheel.sleeping[tag]:
            return
        wake_ns = entry.visible_ns
        timer = self._wheel.timer_target[tag]
        if timer is not None:
            wake_ns = min(wake_ns, timer)
        self._wake(domain, wake_ns)

    # ------------------------------------------------------------------
    # the megaloop
    # ------------------------------------------------------------------

    @hot_path
    def run(self, max_time_ns: Optional[float] = None) -> SimulationResult:  # noqa: C901
        """Simulate until the trace fully retires; return the result.

        One flat event loop replacing the reference's run/_front_end_cycle/
        _domain_cycle/_sample call tree.  Comments of the form ``ref:`` tie
        blocks back to the reference lines they mirror.
        """
        cfg = self.config
        if max_time_ns is None:
            # ref: generous cutoff, identical expression
            max_time_ns = len(self.trace) * 25.0 / cfg.f_min_ghz + 1e5

        # --- bind everything to locals --------------------------------
        trace = self.trace
        trace_len = len(trace)
        wheel = self._wheel
        heap = wheel.heap
        seq = wheel.seq
        sleeping = wheel.sleeping
        timer_target = wheel.timer_target
        wake_gen = wheel.wake_gen
        pause = self._pause_until

        clocks = [
            self.clocks[DomainId.FRONT_END],
            self.clocks[DomainId.INT],
            self.clocks[DomainId.FP],
            self.clocks[DomainId.LS],
        ]
        sigma = cfg.jitter_sigma_ns
        # Random.gauss, inlined: each clock's uniform source plus its cached
        # second variate, written back to the clock's rng at loop end
        rand = [c._rng.random for c in clocks]
        gauss_next = [c._rng.gauss_next for c in clocks]
        freqs = [c._freq_ghz for c in clocks]
        periods = [1.0 / f for f in freqs]
        neg04 = [-0.4 * p for p in periods]
        pos04 = [0.4 * p for p in periods]
        next_edge = [c._next_edge_ns for c in clocks]
        fe_period = periods[0]  # the front-end clock never retunes

        rob = self.rob
        rob_entries = rob._entries
        rob_by_index = rob._by_index
        completion = rob._completion_ns
        completion_get = completion.get
        rob_cap = rob.capacity
        retire_width = cfg.retire_width

        q_int = self.queues[DomainId.INT]
        q_fp = self.queues[DomainId.FP]
        q_ls = self.queues[DomainId.LS]
        entries_by_tag = [None, q_int._entries, q_fp._entries, q_ls._entries]
        qcap_by_tag = [0, q_int.capacity, q_fp.capacity, q_ls.capacity]
        dom_int = self.domains[DomainId.INT]
        dom_fp = self.domains[DomainId.FP]
        dom_ls = self.domains[DomainId.LS]
        dom_by_tag = [None, dom_int, dom_fp, dom_ls]
        width_by_tag = [0, dom_int.issue_width, dom_fp.issue_width, dom_ls.issue_width]
        alu_by_tag = [None, dom_int._alu._busy_until, dom_fp._alu._busy_until]
        md_by_tag = [None, dom_int._muldiv._busy_until, dom_fp._muldiv._busy_until]
        ls_ports = dom_ls._ports._busy_until
        sb = dom_ls.store_buffer
        sb_drains = sb._drains
        sb_popleft = sb_drains.popleft
        sb_cap = sb.capacity
        l1w_cycles = dom_ls._l1_write_cycles

        fe = self.frontend
        fe_next = fe.next_index
        fe_dispatched = fe.dispatched
        fe_icache_until = fe._icache_stall_until
        fe_blocked = fe._blocked_on
        fe_last_line = fe._last_fetch_line
        fe_last_stall = fe.last_stall
        fe_sleeping = self._fe_sleeping
        dispatch_width = cfg.dispatch_width
        line_size = cfg.line_size
        mp_pen_ns = cfg.mispredict_penalty_cycles * fe_period
        predictor_resolve = self.predictor.resolve

        hier = self.hierarchy
        l1i_access = hier.l1i.access
        l1d_access = hier.l1d.access
        l2_access = hier.l2.access
        l1_hit_cycles = hier.l1_hit_cycles
        l2_hit_cycles = hier.l2_hit_cycles
        mem_lat_ns = hier.memory_latency_ns

        sync = self.sync
        sync_window = sync.sync_window_ns
        sync_transfers = sync._transfers
        sync_deferred = sync._deferred

        lat_arr = self._lat_arr
        busy_arr = self._busy_arr
        tag_arr = self._tag_arr
        md_arr = self._muldiv_arr
        store_arr = self._store_arr
        branch_arr = self._branch_arr

        ebt = self._energy_by_tag
        abe = self._active_base_e
        ase = self._active_slope_e
        ge = self._gated_e
        iw = self._inv_width
        # FE energy coefficients are voltage-pinned constants
        abe0 = abe[0]
        ase0 = ase[0]
        ge0 = ge[0]
        iw0 = iw[0]

        tables = self._tables
        vtab = tables.voltage
        vtab_get = vtab.get
        voltage_for = cfg.voltage_for
        ctab = tables.coeff
        btab = tables.background
        params_by_tag = tables.params_by_tag
        fe_bg_e = tables.fe_background_e
        coeff_v = self._coeff_v
        bg_v = self._bg_v
        bg_f = self._bg_f
        bg_awake = self._bg_awake
        bg_asleep = self._bg_asleep

        ctrl_rows = self._ctrl_rows
        slew_rows = self._slew_rows
        rec_rows = self._rec_rows
        apply_command = self._apply_command
        # background energy accumulates per tag here, not through the
        # enum-keyed energy.by_domain (Python-level Enum.__hash__ per add);
        # it is written back before anything reads by_domain
        bd = self.energy.by_domain
        edge_tags = tuple(_EDGE_TAG.items())
        bg_e = [0.0, 0.0, 0.0, 0.0]
        for denum, tag in edge_tags:
            bg_e[tag] = bd[denum]
        d_int = DomainId.INT
        d_fp = DomainId.FP
        d_ls = DomainId.LS
        fsum = [0.0, self._freq_sum[d_int], self._freq_sum[d_fp], self._freq_sum[d_ls]]
        freq_samples = self._freq_samples

        dt = cfg.sample_period_ns
        record_history = self.record_history
        stride = self.history_stride
        h_time_append = self.history.time_ns.append
        h_ret_append = self.history.retired.append
        probe = self._probe
        obs_stride = self._obs_stride
        emit_samples = self._emit_samples
        prof = self._profiler
        prof_add = prof.add if prof is not None else None

        occs = self._occ_buf
        issued_buf = self._issued_buf

        # Parked clocks: a clock whose next edges can only spin keeps its
        # owed edge in next_edge[tag], off the heap, until a completion, a
        # dispatch, its bound or a relock pause (DESIGN §6d).  pk lists the
        # parked tags, pk_bound[tag] the time from which a parked clock's
        # edge may do work, pk_lim the least bound of any parked clock.
        pk = []
        pk_bound = [_INF, _INF, _INF, _INF]
        pk_lim = _INF

        # --- initial events (ref push order: FE, INT, FP, LS, sample) -----
        for tag in (0, 1, 2, 3):
            seq += 1
            heappush(heap, (next_edge[tag], tag, seq, 0))
        seq += 1
        heappush(heap, (dt, 4, seq, 0))

        if prof is not None:
            prof.run_started()
        finish_ns = 0.0
        sample_index = 0
        time_ns = self._now

        while fe_next < trace_len or rob_entries:
            if pk:
                # ======================================================
                # replay parked clocks' owed edges that come before the
                # heap top in (time, tag) order and before every parked
                # bound: each is the reference's spinning edge (clock
                # advance, gated energy, FE finish_ns) without the heap
                # ======================================================
                top = heap[0]
                tt = top[0]
                ttag = top[1]
                stop = tt if tt < pk_lim else pk_lim
                i = 0
                while i < len(pk):
                    ptag = pk[i]
                    e = next_edge[ptag]
                    # pause moves only at samples, which the heap holds, so
                    # one check covers this block's (later) edges too
                    if pause[ptag] <= e and (
                        e < stop or (e == tt and ptag < ttag and e < pk_lim)
                    ):
                        per = periods[ptag]
                        lo = neg04[ptag]
                        hi = pos04[ptag]
                        g = ge[ptag]
                        acc = ebt[ptag]
                        gn = gauss_next[ptag]
                        rnd = rand[ptag]
                        while True:
                            last = e
                            # ref: clock.advance()
                            if sigma:
                                z = gn
                                if z is None:
                                    x2pi = rnd() * _TWOPI
                                    g2rad = sqrt(-2.0 * log(1.0 - rnd()))
                                    z = cos(x2pi) * g2rad
                                    gn = sin(x2pi) * g2rad
                                else:
                                    gn = None
                                j = 0.0 + z * sigma
                                if j < lo:
                                    j = lo
                                elif j > hi:
                                    j = hi
                                e = e + per + j
                            else:
                                e = e + per
                            acc += g
                            if not (
                                e < stop or (e == tt and ptag < ttag and e < pk_lim)
                            ):
                                break
                        ebt[ptag] = acc
                        gauss_next[ptag] = gn
                        next_edge[ptag] = e
                        if not ptag:
                            finish_ns = last
                    if e >= pk_bound[ptag] or e < pause[ptag]:
                        # this edge may do work: back on the heap, which can
                        # move the heap top earlier, so start over
                        del pk[i]
                        seq += 1
                        heappush(heap, (e, ptag, seq, 0))
                        pk_lim = _INF
                        for ptag in pk:
                            if pk_bound[ptag] < pk_lim:
                                pk_lim = pk_bound[ptag]
                        top = heap[0]
                        tt = top[0]
                        ttag = top[1]
                        stop = tt if tt < pk_lim else pk_lim
                        i = 0
                    else:
                        i += 1
            ev = heappop(heap)
            time_ns = ev[0]
            tag = ev[1]
            if time_ns > max_time_ns:
                raise RuntimeError(
                    f"simulation exceeded max_time_ns={max_time_ns:.0f} "
                    f"({rob.retired}/{trace_len} retired)"
                )

            if tag < 3:
                if tag:
                    # ==================================================
                    # INT / FP execution-domain edge (ref: _domain_cycle)
                    # ==================================================
                    per = periods[tag]
                    # ref: clock.advance()
                    if sigma:
                        z = gauss_next[tag]
                        if z is None:
                            x2pi = rand[tag]() * _TWOPI
                            g2rad = sqrt(-2.0 * log(1.0 - rand[tag]()))
                            z = cos(x2pi) * g2rad
                            gauss_next[tag] = sin(x2pi) * g2rad
                        else:
                            gauss_next[tag] = None
                        j = 0.0 + z * sigma
                        lo = neg04[tag]
                        hi = pos04[tag]
                        if j < lo:
                            j = lo
                        elif j > hi:
                            j = hi
                        next_edge[tag] = time_ns + per + j
                    else:
                        next_edge[tag] = time_ns + per
                    if time_ns < pause[tag]:
                        # Transmeta-style relock idle: gated + timer sleep
                        ebt[tag] += ge[tag]
                        sleeping[tag] = True
                        pu = pause[tag]
                        timer_target[tag] = pu
                        wake_gen[tag] = g = wake_gen[tag] + 1
                        seq += 1
                        heappush(heap, (pu, tag + 4, seq, g))
                        continue
                    # ref: ExecutionDomain.cycle
                    entries = entries_by_tag[tag]
                    width = width_by_tag[tag]
                    issued = 0
                    for entry in entries:
                        if issued >= width:
                            break
                        if entry.visible_ns > time_ns:
                            continue
                        inst = entry.instruction
                        s1 = inst.src1
                        if s1 is not None:
                            d = completion_get(s1)
                            if d is None or d > time_ns:
                                continue
                        s2 = inst.src2
                        if s2 is not None:
                            d = completion_get(s2)
                            if d is None or d > time_ns:
                                continue
                        idx = inst.index
                        busy = md_by_tag[tag] if md_arr[idx] else alu_by_tag[tag]
                        i = 0
                        nb = len(busy)
                        while i < nb:
                            if busy[i] <= time_ns:
                                busy[i] = time_ns + busy_arr[idx] * per
                                break
                            i += 1
                        else:
                            continue  # no free functional unit
                        done_ns = time_ns + lat_arr[idx] * per
                        # ref: rob.mark_done (+ head-done FE wake)
                        completion[idx] = done_ns
                        rentry = rob_by_index.get(idx)
                        if rentry is not None:
                            rentry.done_ns = done_ns
                            if (
                                fe_sleeping
                                and rob_entries
                                and rob_entries[0] is rentry
                            ):
                                wake_ns = done_ns if done_ns > time_ns else time_ns
                                fe_sleeping = False
                                ne0 = next_edge[0]
                                if wake_ns > ne0:
                                    next_edge[0] = ne0 + ceil(
                                        (wake_ns - ne0) / fe_period
                                    ) * fe_period
                                seq += 1
                                heappush(heap, (next_edge[0], 0, seq, 0))
                        issued_buf.append(entry)
                        issued += 1
                    if issued:
                        qcap = qcap_by_tag[tag]
                        for entry in issued_buf:
                            # ref: queue.remove (+ slot-freed FE wake)
                            was_full = len(entries) >= qcap
                            k = 0
                            while entries[k] is not entry:
                                k += 1
                            del entries[k]
                            if was_full and fe_sleeping:
                                fe_sleeping = False
                                ne0 = next_edge[0]
                                if time_ns > ne0:
                                    next_edge[0] = ne0 + ceil(
                                        (time_ns - ne0) / fe_period
                                    ) * fe_period
                                seq += 1
                                heappush(heap, (next_edge[0], 0, seq, 0))
                        del issued_buf[:]
                        dom_by_tag[tag].issued += issued
                        utilization = issued * iw[tag]
                        if utilization > 1.0:
                            utilization = 1.0
                        ebt[tag] += abe[tag] + ase[tag] * utilization
                        if pk:
                            # new completions: every parked clock may move
                            for ptag in pk:
                                seq += 1
                                heappush(heap, (next_edge[ptag], ptag, seq, 0))
                            del pk[:]
                            pk_lim = _INF
                    else:
                        ebt[tag] += ge[tag]
                        alu = alu_by_tag[tag]
                        md = md_by_tag[tag]
                        if (
                            not entries
                            and max(alu) <= time_ns
                            and max(md) <= time_ns
                        ):
                            # ref: is_idle -> pure sleep, next dispatch wakes
                            sleeping[tag] = True
                            timer_target[tag] = None
                            wake_gen[tag] += 1
                            continue
                        # ref: stall_hint (next_ready_hint inline).  The
                        # reference stops at the first entry with an
                        # unissued producer (hint unknown); this scan goes
                        # on past it so `best` also bounds a park.
                        best = _INF
                        unknown = False
                        for entry in entries:
                            v = entry.visible_ns
                            if v > time_ns:
                                if v < best:
                                    best = v
                                continue
                            ready = v
                            inst = entry.instruction
                            s1 = inst.src1
                            if s1 is not None:
                                d = completion_get(s1)
                                if d is None:
                                    unknown = True
                                    continue
                                if d > ready:
                                    ready = d
                            s2 = inst.src2
                            if s2 is not None:
                                d = completion_get(s2)
                                if d is None:
                                    unknown = True
                                    continue
                                if d > ready:
                                    ready = d
                            if ready <= time_ns:
                                break  # issuable but FU-blocked: keep ticking
                            if ready < best:
                                best = ready
                        else:
                            if unknown:
                                # no entry can pass the issue checks before
                                # `best` without a new completion: park
                                pk.append(tag)
                                if best > max_time_ns:
                                    best = max_time_ns
                                pk_bound[tag] = best
                                if best < pk_lim:
                                    pk_lim = best
                                continue
                            if best != _INF and best > time_ns + 2.0 * per:
                                sleeping[tag] = True
                                timer_target[tag] = best
                                wake_gen[tag] = g = wake_gen[tag] + 1
                                seq += 1
                                heappush(heap, (best, tag + 4, seq, g))
                                continue
                    seq += 1
                    heappush(heap, (next_edge[tag], tag, seq, 0))
                else:
                    # ==================================================
                    # front-end edge (ref: _front_end_cycle)
                    # ==================================================
                    # ref: clock.advance()
                    if sigma:
                        z = gauss_next[0]
                        if z is None:
                            x2pi = rand[0]() * _TWOPI
                            g2rad = sqrt(-2.0 * log(1.0 - rand[0]()))
                            z = cos(x2pi) * g2rad
                            gauss_next[0] = sin(x2pi) * g2rad
                        else:
                            gauss_next[0] = None
                        j = 0.0 + z * sigma
                        lo = neg04[0]
                        hi = pos04[0]
                        if j < lo:
                            j = lo
                        elif j > hi:
                            j = hi
                        next_edge[0] = time_ns + fe_period + j
                    else:
                        next_edge[0] = time_ns + fe_period
                    # ref: rob.retire(now, retire_width)
                    retired_now = 0
                    while retired_now < retire_width and rob_entries:
                        head = rob_entries[0]
                        if head.done_ns > time_ns:
                            break
                        rob_entries.popleft()
                        del rob_by_index[head.instruction.index]
                        retired_now += 1
                    rob.retired += retired_now
                    fe_last_stall = None
                    dispatched = 0
                    if fe_next >= trace_len:
                        fe_last_stall = "trace_done"
                    elif (
                        fe_blocked is not None
                        and fe_blocked.done_ns + mp_pen_ns > time_ns
                    ):
                        # ref: _redirect_clear False -> mispredict redirect
                        fe_last_stall = "branch"
                    elif fe_icache_until > time_ns:
                        # redirect (if any) cleared; I-fetch still stalled
                        fe_blocked = None
                        fe_last_stall = "icache"
                    else:
                        fe_blocked = None
                        # ref: _fetch_and_dispatch
                        budget = dispatch_width
                        while budget:
                            budget -= 1
                            if fe_next >= trace_len:
                                break
                            inst = trace[fe_next]
                            pc = inst.pc
                            line = pc // line_size
                            if line != fe_last_line:
                                # ref: _icache_miss
                                fe_last_line = line
                                if not l1i_access(pc):
                                    l2_hit = l2_access(pc)
                                    if not l2_hit:
                                        hier.memory_accesses += 1
                                    cycles = l1_hit_cycles + l2_hit_cycles
                                    fixed = 0.0 if l2_hit else mem_lat_ns
                                    extra = cycles - l1_hit_cycles
                                    fe_icache_until = (
                                        time_ns + extra * fe_period + fixed
                                    )
                                    if dispatched == 0:
                                        fe_last_stall = "icache"
                                    break
                            if len(rob_entries) >= rob_cap:
                                if dispatched == 0:
                                    fe_last_stall = "rob_full"
                                break
                            idx = inst.index
                            dtag = tag_arr[idx]
                            q_entries = entries_by_tag[dtag]
                            if len(q_entries) >= qcap_by_tag[dtag]:
                                if dispatched == 0:
                                    fe_last_stall = "queue_full"
                                break
                            # ref: rob.allocate
                            rentry = RobEntry(instruction=inst, dispatch_ns=time_ns)
                            rob_entries.append(rentry)
                            rob_by_index[idx] = rentry
                            # ref: sync.arrival_time(now + period, dst_clock)
                            t_ready = time_ns + fe_period
                            ne = next_edge[dtag]
                            per = periods[dtag]
                            if t_ready <= ne:
                                edge2 = ne
                            else:
                                edge2 = ne + ceil((t_ready - ne) / per) * per
                            sync_transfers += 1
                            if edge2 - t_ready < sync_window:
                                sync_deferred += 1
                                edge2 += per
                            q_entries.append(
                                QueueEntry(
                                    instruction=inst,
                                    visible_ns=edge2,
                                    enqueued_ns=time_ns,
                                )
                            )
                            # ref: on_dispatch -> wake a sleeping domain
                            if sleeping[dtag]:
                                wake_ns = edge2
                                tt = timer_target[dtag]
                                if tt is not None and tt < wake_ns:
                                    wake_ns = tt
                                sleeping[dtag] = False
                                timer_target[dtag] = None
                                wake_gen[dtag] += 1
                                if wake_ns > ne:
                                    ne += ceil((wake_ns - ne) / per) * per
                                    next_edge[dtag] = ne
                                seq += 1
                                heappush(heap, (next_edge[dtag], dtag, seq, 0))
                            elif pk and dtag in pk:
                                # a parked domain got work: its owed edge
                                # (already caught up to now) goes back on
                                pk.remove(dtag)
                                seq += 1
                                heappush(heap, (ne, dtag, seq, 0))
                                pk_lim = _INF
                                for ptag in pk:
                                    if pk_bound[ptag] < pk_lim:
                                        pk_lim = pk_bound[ptag]
                            fe_next += 1
                            dispatched += 1
                            if branch_arr[idx]:
                                if not predictor_resolve(pc, inst.taken, inst.target):
                                    fe_blocked = rob_by_index.get(idx)
                                    break
                        fe_dispatched += dispatched
                    # ref: _front_end_cycle energy + reschedule
                    if dispatched:
                        utilization = dispatched * iw0
                        if utilization > 1.0:
                            utilization = 1.0
                        ebt[0] += abe0 + ase0 * utilization
                    else:
                        ebt[0] += ge0
                    if fe_next < trace_len or rob_entries:
                        if dispatched == 0:
                            # ref: stall_hint
                            candidate = None
                            known = True
                            if fe_blocked is not None:
                                bdn = fe_blocked.done_ns
                                if bdn == _INF:
                                    known = False
                                else:
                                    candidate = bdn + mp_pen_ns
                            elif fe_icache_until > time_ns:
                                candidate = fe_icache_until
                            elif len(rob_entries) >= rob_cap:
                                hd = rob_entries[0].done_ns
                                if hd == _INF:
                                    known = False
                                else:
                                    candidate = hd
                            hint = None
                            if known and candidate is not None and candidate > time_ns:
                                hd = rob_entries[0].done_ns if rob_entries else None
                                if hd is not None and hd != _INF:
                                    if hd <= time_ns:
                                        candidate = None
                                    elif hd < candidate:
                                        candidate = hd
                                hint = candidate
                            if hint is not None:
                                ne0 = next_edge[0]
                                if hint > ne0:
                                    next_edge[0] = ne0 + ceil(
                                        (hint - ne0) / fe_period
                                    ) * fe_period
                                seq += 1
                                heappush(heap, (next_edge[0], 0, seq, 0))
                            elif fe_last_stall == "queue_full" or fe_last_stall == "rob_full":
                                fe_sleeping = True
                            elif not retired_now:
                                # no hint and nothing retired: the whole
                                # trace is dispatched, or the front end is
                                # behind an unissued mispredicted branch.
                                # Every edge before the ROB head completes
                                # only spins, so park
                                pk.append(0)
                                b = rob_entries[0].done_ns
                                if b > max_time_ns:
                                    b = max_time_ns
                                pk_bound[0] = b
                                if b < pk_lim:
                                    pk_lim = b
                            else:
                                seq += 1
                                heappush(heap, (next_edge[0], 0, seq, 0))
                        else:
                            seq += 1
                            heappush(heap, (next_edge[0], 0, seq, 0))
                    finish_ns = time_ns
            elif tag == 3:
                # ======================================================
                # LS-domain edge (ref: _domain_cycle + LoadStoreDomain)
                # ======================================================
                per = periods[3]
                if sigma:
                    z = gauss_next[3]
                    if z is None:
                        x2pi = rand[3]() * _TWOPI
                        g2rad = sqrt(-2.0 * log(1.0 - rand[3]()))
                        z = cos(x2pi) * g2rad
                        gauss_next[3] = sin(x2pi) * g2rad
                    else:
                        gauss_next[3] = None
                    j = 0.0 + z * sigma
                    lo = neg04[3]
                    hi = pos04[3]
                    if j < lo:
                        j = lo
                    elif j > hi:
                        j = hi
                    next_edge[3] = time_ns + per + j
                else:
                    next_edge[3] = time_ns + per
                if time_ns < pause[3]:
                    ebt[3] += ge[3]
                    sleeping[3] = True
                    pu = pause[3]
                    timer_target[3] = pu
                    wake_gen[3] = g = wake_gen[3] + 1
                    seq += 1
                    heappush(heap, (pu, 7, seq, g))
                    continue
                entries = entries_by_tag[3]
                width = width_by_tag[3]
                issued = 0
                for entry in entries:
                    if issued >= width:
                        break
                    if entry.visible_ns > time_ns:
                        continue
                    inst = entry.instruction
                    s1 = inst.src1
                    if s1 is not None:
                        d = completion_get(s1)
                        if d is None or d > time_ns:
                            continue
                    s2 = inst.src2
                    if s2 is not None:
                        d = completion_get(s2)
                        if d is None or d > time_ns:
                            continue
                    idx = inst.index
                    storing = store_arr[idx]
                    if storing:
                        # ref: store_buffer.can_accept (evict then test)
                        while sb_drains and sb_drains[0] <= time_ns:
                            sb_popleft()
                        if len(sb_drains) >= sb_cap:
                            sb.full_stalls += 1
                            continue
                    # ref: _ports.acquire(now, period); on failure: break
                    i = 0
                    nb = len(ls_ports)
                    while i < nb:
                        if ls_ports[i] <= time_ns:
                            ls_ports[i] = time_ns + per
                            break
                        i += 1
                    else:
                        break  # both cache ports taken this cycle
                    # ref: _access_latency
                    if not l1d_access(inst.addr):
                        l2_hit = l2_access(inst.addr)
                        if not l2_hit:
                            hier.memory_accesses += 1
                        cycles = l1_hit_cycles + l2_hit_cycles
                        fixed = 0.0 if l2_hit else mem_lat_ns
                    else:
                        cycles = l1_hit_cycles
                        fixed = 0.0
                    full_path = per + cycles * per + fixed
                    if storing:
                        dom_ls.stores += 1
                        latency_ns = per + l1w_cycles * per
                        # ref: store_buffer.push(now, now + full_path)
                        while sb_drains and sb_drains[0] <= time_ns:
                            sb_popleft()
                        dd = time_ns + full_path
                        if sb_drains and dd < sb_drains[-1]:
                            dd = sb_drains[-1]
                        sb_drains.append(dd)
                        sb.total_stores += 1
                    else:
                        dom_ls.loads += 1
                        latency_ns = full_path
                    done_ns = time_ns + latency_ns
                    completion[idx] = done_ns
                    rentry = rob_by_index.get(idx)
                    if rentry is not None:
                        rentry.done_ns = done_ns
                        if fe_sleeping and rob_entries and rob_entries[0] is rentry:
                            wake_ns = done_ns if done_ns > time_ns else time_ns
                            fe_sleeping = False
                            ne0 = next_edge[0]
                            if wake_ns > ne0:
                                next_edge[0] = ne0 + ceil(
                                    (wake_ns - ne0) / fe_period
                                ) * fe_period
                            seq += 1
                            heappush(heap, (next_edge[0], 0, seq, 0))
                    issued_buf.append(entry)
                    issued += 1
                if issued:
                    qcap = qcap_by_tag[3]
                    for entry in issued_buf:
                        was_full = len(entries) >= qcap
                        k = 0
                        while entries[k] is not entry:
                            k += 1
                        del entries[k]
                        if was_full and fe_sleeping:
                            fe_sleeping = False
                            ne0 = next_edge[0]
                            if time_ns > ne0:
                                next_edge[0] = ne0 + ceil(
                                    (time_ns - ne0) / fe_period
                                ) * fe_period
                            seq += 1
                            heappush(heap, (next_edge[0], 0, seq, 0))
                    del issued_buf[:]
                    dom_ls.issued += issued
                    utilization = issued * iw[3]
                    if utilization > 1.0:
                        utilization = 1.0
                    ebt[3] += abe[3] + ase[3] * utilization
                    if pk:
                        for ptag in pk:
                            seq += 1
                            heappush(heap, (next_edge[ptag], ptag, seq, 0))
                        del pk[:]
                        pk_lim = _INF
                else:
                    ebt[3] += ge[3]
                    if not entries and max(ls_ports) <= time_ns:
                        sleeping[3] = True
                        timer_target[3] = None
                        wake_gen[3] += 1
                        continue
                    best = _INF
                    unknown = False
                    for entry in entries:
                        v = entry.visible_ns
                        if v > time_ns:
                            if v < best:
                                best = v
                            continue
                        ready = v
                        inst = entry.instruction
                        s1 = inst.src1
                        if s1 is not None:
                            d = completion_get(s1)
                            if d is None:
                                unknown = True
                                continue
                            if d > ready:
                                ready = d
                        s2 = inst.src2
                        if s2 is not None:
                            d = completion_get(s2)
                            if d is None:
                                unknown = True
                                continue
                            if d > ready:
                                ready = d
                        if ready <= time_ns:
                            break  # issuable but port/store-buffer-blocked
                        if ready < best:
                            best = ready
                    else:
                        if unknown:
                            pk.append(3)
                            if best > max_time_ns:
                                best = max_time_ns
                            pk_bound[3] = best
                            if best < pk_lim:
                                pk_lim = best
                            continue
                        if best != _INF and best > time_ns + 2.0 * per:
                            sleeping[3] = True
                            timer_target[3] = best
                            wake_gen[3] = g = wake_gen[3] + 1
                            seq += 1
                            heappush(heap, (best, 7, seq, g))
                            continue
                seq += 1
                heappush(heap, (next_edge[3], 3, seq, 0))
            elif tag == 4:
                # ======================================================
                # sample tick (ref: _sample, 4 profiled phases)
                # ======================================================
                sample_index += 1
                if prof is not None:
                    t0 = perf_counter()  # statcheck: disable=DET002 -- profiling only
                # -- latch ------------------------------------------------
                occs[1] = len(entries_by_tag[1])
                occs[2] = len(entries_by_tag[2])
                occs[3] = len(entries_by_tag[3])
                record = record_history and sample_index % stride == 0
                if record:
                    h_time_append(time_ns)
                    h_ret_append(rob.retired)
                freq_samples += 1
                if prof is not None:
                    t1 = perf_counter()  # statcheck: disable=DET002 -- profiling only
                    prof_add("latch", t1 - t0)
                # -- observe ----------------------------------------------
                for dtag, denum, ctrl, reg in ctrl_rows:
                    command = ctrl.observe(time_ns, occs[dtag], reg._current_ghz)
                    if command is not None:
                        apply_command(time_ns, denum, reg, command)
                if prof is not None:
                    t2 = perf_counter()  # statcheck: disable=DET002 -- profiling only
                    prof_add("observe", t2 - t1)
                # -- slew -------------------------------------------------
                for dtag, reg in slew_rows:
                    cur = reg._current_ghz
                    tgt = reg._target_ghz
                    if tgt != cur:
                        # ref: regulator.advance(dt) -- identical arithmetic
                        delta = tgt - cur
                        max_move = reg.slew_ghz_per_ns * dt
                        move = max(-max_move, min(max_move, delta))
                        cur += move
                        reg.total_travel_ghz += abs(move)
                        if abs(tgt - cur) < 1e-12:
                            cur = tgt
                        reg._current_ghz = cur
                        v = vtab_get(cur)
                        if v is None:
                            v = voltage_for(cur)
                            vtab[cur] = v
                        reg._voltage = v
                        # ref: clock.set_frequency(current)
                        if cur != freqs[dtag]:
                            freqs[dtag] = cur
                            p = 1.0 / cur
                            periods[dtag] = p
                            neg04[dtag] = -0.4 * p
                            pos04[dtag] = 0.4 * p
                    fsum[dtag] += cur
                    # ref: energy.add(domain, power.background(...))
                    v = reg._voltage
                    if v != bg_v[dtag] or cur != bg_f[dtag]:
                        row = btab[dtag].get((v, cur))
                        if row is None:
                            ce, _, _, gf, lf = params_by_tag[dtag]
                            leak = ce * v * v * lf
                            gated_rate = ce * v * v * gf * cur
                            row = (leak * dt, (leak + gated_rate) * dt)
                            btab[dtag][(v, cur)] = row
                        bg_v[dtag] = v
                        bg_f[dtag] = cur
                        bg_awake[dtag] = row[0]
                        bg_asleep[dtag] = row[1]
                    bg_e[dtag] += bg_asleep[dtag] if sleeping[dtag] else bg_awake[dtag]
                    # ref: _refresh_energy_coefficients (this domain's slice)
                    if v != coeff_v[dtag]:
                        coeff_v[dtag] = v
                        row = ctab[dtag].get(v)
                        if row is None:
                            ce, ab, asl, gf, _ = params_by_tag[dtag]
                            v2c = ce * v * v
                            row = (v2c * ab, v2c * asl, v2c * gf)
                            ctab[dtag][v] = row
                        abe[dtag] = row[0]
                        ase[dtag] = row[1]
                        ge[dtag] = row[2]
                bg_e[0] += fe_bg_e
                if prof is not None:
                    t3 = perf_counter()  # statcheck: disable=DET002 -- profiling only
                    prof_add("slew", t3 - t2)
                # -- record -----------------------------------------------
                if record:
                    for dtag, occ_ap, freq_ap, iss_ap, reg, dom_obj in rec_rows:
                        occ_ap(occs[dtag])
                        freq_ap(reg._current_ghz)
                        iss_ap(dom_obj.issued)
                if probe is not None and sample_index % obs_stride == 0:
                    # Probe emission is the one sample path allowed to
                    # allocate: it only runs with the observability layer
                    # attached, and _emit_samples expects the reference's
                    # enum-keyed occupancy mapping.
                    for denum, dtag in edge_tags:
                        bd[denum] = bg_e[dtag]
                    emit_samples(
                        time_ns,
                        {d_int: occs[1], d_fp: occs[2], d_ls: occs[3]},  # statcheck: disable=PERF001 -- obs-only cold branch; _emit_samples takes the reference's enum-keyed dict
                    )
                if prof is not None:
                    prof_add("record", perf_counter() - t3)  # statcheck: disable=DET002 -- profiling only
                seq += 1
                heappush(heap, (time_ns + dt, 4, seq, 0))
            else:
                # ======================================================
                # wake timer (ref: run loop's _TIMER_DOMAIN branch)
                # ======================================================
                dtag = tag - 4
                if sleeping[dtag] and ev[3] == wake_gen[dtag]:
                    sleeping[dtag] = False
                    timer_target[dtag] = None
                    wake_gen[dtag] += 1
                    ne = next_edge[dtag]
                    if time_ns > ne:
                        per = periods[dtag]
                        next_edge[dtag] = ne + ceil((time_ns - ne) / per) * per
                    seq += 1
                    heappush(heap, (next_edge[dtag], dtag, seq, 0))

        # --- write locals back into object state ----------------------
        # still-parked clocks' owed edges go on the heap, as in the reference
        for tag in pk:
            seq += 1
            heappush(heap, (next_edge[tag], tag, seq, 0))
        for denum, tag in edge_tags:
            bd[denum] = bg_e[tag]
        wheel.seq = seq
        self._seq = seq
        self._now = time_ns
        fe.next_index = fe_next
        fe.dispatched = fe_dispatched
        fe.last_stall = fe_last_stall
        fe._blocked_on = fe_blocked
        fe._icache_stall_until = fe_icache_until
        fe._last_fetch_line = fe_last_line
        self._fe_sleeping = fe_sleeping
        sync._transfers = sync_transfers
        sync._deferred = sync_deferred
        for tag in (0, 1, 2, 3):
            clock = clocks[tag]
            clock._freq_ghz = freqs[tag]
            clock._next_edge_ns = next_edge[tag]
            clock._rng.gauss_next = gauss_next[tag]
        for domain, tag in ((d_int, 1), (d_fp, 2), (d_ls, 3)):
            self._sleeping[domain] = sleeping[tag]
            self._timer_target[domain] = timer_target[tag]
            self._wake_gen[domain] = wake_gen[tag]
            self._freq_sum[domain] = fsum[tag]
        self._freq_samples = freq_samples

        if prof is not None:
            prof.run_finished(samples=freq_samples)
        return self._result(finish_ns)
