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
* **tag-indexed wake state** -- ``run()`` copies the processor's
  ``Dict[DomainId, ...]`` sleep/timer/generation maps into lists indexed by
  edge tag on entry and writes them back on exit;
* **frequency-keyed rows** -- a slewing domain-tick fetches one
  :class:`repro.simcore.tables.SimTables` row for its new frequency: V(f),
  the awake and asleep background energy and the three per-cycle energy
  coefficients, each the bit-exact value the reference would recompute; a
  domain that is not slewing keeps the row of its frequency;
* **no controller call during an Act** -- while an exact
  ``AdaptiveDvfsController``'s switch is in progress, ``observe`` would only
  store the occupancy for the next slope, so the sample tick stores it
  itself;
* **allocation-free sampling** -- occupancies latch into scalars, the
  issue scan reuses one buffer, and history appends go through pre-bound
  methods; the only dict built per sample is the probe-emission payload, and
  only when the observability layer is attached;
* **jitter tapes** -- an edge's jitter is its clock's next value on a
  per-process tape of what the clock generator's ``Random.gauss`` calls
  return from its state at the start of the run
  (:mod:`repro.simcore.tapes`), so the runs of one seed compute each clock's
  jitter once;
* **parked clocks** -- a clock whose next edges can only spin (an issue
  queue waiting on a producer that has not issued, a front end behind an
  unissued mispredicted branch or done dispatching the trace) leaves the
  heap, and its owed edges are replayed only when something reads or changes
  what they touch: its time bound, a completion, a dispatch to it, a slew, a
  relock pause or a probe emission.

A run with no controllers and no observability also logs the INT, FP and LS
occupancies each sample tick latches (``occupancy_log``, at most
``MAX_LOGGED_TICKS`` ticks).  The harness replays a scheme's controllers over
it, and a scheme that never commands is answered from this run's result
instead of simulated (:func:`repro.harness.experiment.run_experiment`).

The bit-identical contract imposes hard rules on every edit here: float
expressions must keep the reference's operand order and association
(``(leak + gated) * dt`` is not ``leak*dt + gated*dt``); each clock must
read its tape in the reference's draw order, one value per edge, and leave
its generator where as many ``Random.gauss`` calls would
(``tapes.advance``); and events must pop in the reference's ``(time, tag)``
order.  A clock has at most one edge on the heap, so sequence numbers only
break ties between a domain's wake timers, which are pushed in the
reference's order; parked clocks push fewer events, so the final ``seq`` is
lower than the reference's.  Golden-equivalence tests in ``tests/simcore/``
enforce the contract for every controller style.
"""

from __future__ import annotations

from heapq import heappop, heappush
from math import ceil, nextafter
from time import perf_counter
from typing import Optional

from repro.core.controller import AdaptiveDvfsController
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
from repro.simcore.tables import tables_for
from repro.simcore.tapes import advance, tape_for
from repro.workloads.instructions import InstructionKind as K

_INF = float("inf")

#: a run with no controllers and no observability logs the occupancies its
#: sample ticks latch, at most this many ticks (262 us at the 4 ns period);
#: a longer run's log stops short, so its run answers no silent scheme
#: (DESIGN §6d item 9)
MAX_LOGGED_TICKS = 1 << 16

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


@hot_path
def _catch_up(clk: tuple, tag: int, stop: float) -> None:
    """Replay parked clock ``tag``'s owed edges before time ``stop``.

    Each replayed edge is the reference's spinning edge: ``clock.advance()``
    (the clock's next tape value, its clamp, the next edge's time) and the
    gated-energy add.  Both use the period and gated energy in force, which
    only a slewing sample tick moves, and it catches the clock up first.
    ``clk`` is ``run()``'s per-tag state: ``(next_edge, periods, neg04,
    pos04, ge, ebt, tapes, tpos)``, ``tapes`` ``None`` without jitter.
    Every caller first checks ``next_edge[tag] < stop``, so a call replays
    at least one edge.
    """
    next_edge, periods, neg04, pos04, ge, ebt, tapes, tpos = clk
    e = next_edge[tag]
    per = periods[tag]
    g = ge[tag]
    acc = ebt[tag]
    if tapes is None:
        while e < stop:
            e = e + per
            acc += g
    else:
        values = tapes[tag].values
        lo = neg04[tag]
        hi = pos04[tag]
        k = tpos[tag]
        while e < stop:
            try:
                j = values[k]
            except IndexError:
                j = tapes[tag].at(k)
            k += 1
            if j < lo:
                j = lo
            elif j > hi:
                j = hi
            e = e + per + j
            acc += g
        tpos[tag] = k
    next_edge[tag] = e
    ebt[tag] = acc


class FastMCDProcessor(MCDProcessor):
    """The fast core.  Construction and results match MCDProcessor exactly."""

    def __init__(self, *args: object, **kwargs: object) -> None:
        super().__init__(*args, **kwargs)  # type: ignore[arg-type]
        self._tables = tables_for(self.config, self.power)
        #: after a run without controllers or observability, the INT, FP and
        #: LS occupancy each sample tick latched, in tick order; it ends
        #: short of the run's ticks past MAX_LOGGED_TICKS
        self.occupancy_log: Optional[list] = None

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
        # An AdaptiveDvfsController also brings its scheduler and monitor:
        # during an Act the sample tick stores the occupancy itself instead
        # of calling observe.  Subclasses may override observe, so only the
        # exact class qualifies.
        self._ctrl_rows = []
        for d in CONTROLLED_DOMAINS:
            ctrl = self.controllers.get(d)
            if ctrl is None:
                continue
            adaptive = type(ctrl) is AdaptiveDvfsController
            self._ctrl_rows.append(
                (
                    _EDGE_TAG[d],
                    d,
                    ctrl,
                    self.regulators[d],
                    ctrl.scheduler if adaptive else None,
                    ctrl.monitor if adaptive else None,
                )
            )
        # per domain: its regulator, the regulator's constant per-sample
        # slew bound and its negation, and the domain's row dict
        self._slew_rows = []
        for d in CONTROLLED_DOMAINS:
            reg = self.regulators[d]
            max_move = reg.slew_ghz_per_ns * self.config.sample_period_ns
            tag = _EDGE_TAG[d]
            self._slew_rows.append(
                (tag, reg, max_move, -max_move, self._tables.rows[tag])
            )
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
        heap = self._heap
        seq = self._seq
        d_int = DomainId.INT
        d_fp = DomainId.FP
        d_ls = DomainId.LS
        exec_tags = ((d_int, 1), (d_fp, 2), (d_ls, 3))
        # wake state indexed by edge tag (the front end's is _fe_sleeping),
        # read from the processor's dicts here and written back at loop end
        sleeping = [False, False, False, False]
        timer_target = [None, None, None, None]
        wake_gen = [0, 0, 0, 0]
        for domain, tag in exec_tags:
            sleeping[tag] = self._sleeping[domain]
            timer_target[tag] = self._timer_target[domain]
            wake_gen[tag] = self._wake_gen[domain]
        pause = self._pause_until

        clocks = [
            self.clocks[DomainId.FRONT_END],
            self.clocks[DomainId.INT],
            self.clocks[DomainId.FP],
            self.clocks[DomainId.LS],
        ]
        sigma = cfg.jitter_sigma_ns
        # Jitter: clock tag's k-th edge adds tvals[tag][k], what the k-th
        # Random.gauss call on its generator returns from the generator's
        # state now, read from the clock's interned tape.  tpos[tag] counts
        # the values used, and the generator moves on by as many draws at
        # loop end.  Without jitter the reference draws nothing.
        tapes = [tape_for(c._rng, sigma) for c in clocks] if sigma else None
        tvals = [tape.values for tape in tapes] if tapes else None
        tpos = [0, 0, 0, 0]
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
        row_for = tables.row
        fe_bg_e = tables.fe_background_e
        ctrl_rows = self._ctrl_rows
        slew_rows = self._slew_rows
        # Each domain's per-sample background energy, awake and asleep, at
        # its current frequency.  Only a slewing tick moves the frequency,
        # and it refreshes these and the energy coefficients from the new
        # frequency's row, so a domain that is not slewing keeps them.
        bg_awake = [0.0, 0.0, 0.0, 0.0]
        bg_asleep = [0.0, 0.0, 0.0, 0.0]
        for dtag, reg, _, _, _ in slew_rows:
            _, bg_awake[dtag], bg_asleep[dtag], abe[dtag], ase[dtag], ge[dtag] = (
                row_for(dtag, reg._current_ghz)
            )
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

        # scratch buffers: the allocation-free sample and issue paths
        occs = [0, 0, 0, 0]
        issued_buf = []
        # Without controllers or observability, each tick logs its latched
        # INT, FP and LS occupancies (CONTROLLED_DOMAINS order), for up to
        # MAX_LOGGED_TICKS ticks: what a scheme's controllers would observe
        # on this trajectory (DESIGN §6d item 9)
        log_left = MAX_LOGGED_TICKS if not ctrl_rows and self.obs is None else 0
        occ_log = [] if log_left else None

        # Parked clocks: a clock whose next edges can only spin keeps its
        # owed edge in next_edge[tag], off the heap, and its owed edges are
        # replayed (_catch_up) only when something reads or changes what
        # they touch: its bound, a completion, a dispatch to it, a slew, a
        # relock pause or a probe emission (DESIGN §6d item 6).  pk lists
        # the parked tags, pk_bound[tag] the time from which a parked
        # clock's edge may do work, pk_lim the least bound of any parked
        # clock.
        pk = []
        pk_bound = [_INF, _INF, _INF, _INF]
        pk_lim = _INF
        clk = (next_edge, periods, neg04, pos04, ge, ebt, tapes, tpos)

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
            if heap[0][0] >= pk_lim:
                # ======================================================
                # unpark at a bound: the parked clock with the least bound
                # may do work from its bound on.  Replay its owed edges
                # before the bound, put its next edge on the heap and look
                # again.  Only the least bound goes: its edges may write
                # completions, which a later-bound clock must meet parked.
                # ======================================================
                for ptag in pk:
                    if pk_bound[ptag] == pk_lim:
                        break
                if next_edge[ptag] < pk_lim:
                    _catch_up(clk, ptag, pk_lim)
                pk.remove(ptag)
                seq += 1
                heappush(heap, (next_edge[ptag], ptag, seq, 0))
                pk_lim = _INF
                for ptag in pk:
                    if pk_bound[ptag] < pk_lim:
                        pk_lim = pk_bound[ptag]
                continue
            ev = heappop(heap)
            time_ns = ev[0]
            tag = ev[1]
            if time_ns > max_time_ns:
                for tape in tapes or ():
                    tape.trim()
                raise RuntimeError(
                    f"simulation exceeded max_time_ns={max_time_ns:.0f} "
                    f"({rob.retired}/{trace_len} retired)"
                )

            if tag < 4:
                # ======================================================
                # a clock edge.  ref: clock.advance(), whose jitter is the
                # clock's next tape value
                # ======================================================
                per = periods[tag]
                if sigma:
                    k = tpos[tag]
                    try:
                        j = tvals[tag][k]
                    except IndexError:
                        j = tapes[tag].at(k)
                    tpos[tag] = k + 1
                    if j < neg04[tag]:
                        j = neg04[tag]
                    elif j > pos04[tag]:
                        j = pos04[tag]
                    next_edge[tag] = time_ns + per + j
                else:
                    next_edge[tag] = time_ns + per
                if tag == 3:
                    # ==================================================
                    # LS-domain edge (ref: _domain_cycle + LoadStoreDomain)
                    # ==================================================
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
                            # new completions: every parked clock may move.
                            # Catch each up to this edge (an edge at this
                            # time pops first if its tag is lower) and put
                            # its next edge on the heap
                            tie = nextafter(time_ns, _INF)
                            for ptag in pk:
                                stop = tie if ptag < tag else time_ns
                                if next_edge[ptag] < stop:
                                    _catch_up(clk, ptag, stop)
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
                                if best > max_time_ns:
                                    best = max_time_ns
                                if best > next_edge[3]:
                                    pk.append(3)
                                    pk_bound[3] = best
                                    if best < pk_lim:
                                        pk_lim = best
                                    continue
                            elif best != _INF and best > time_ns + 2.0 * per:
                                sleeping[3] = True
                                timer_target[3] = best
                                wake_gen[3] = g = wake_gen[3] + 1
                                seq += 1
                                heappush(heap, (best, 7, seq, g))
                                continue
                    seq += 1
                    heappush(heap, (next_edge[3], 3, seq, 0))
                elif tag:
                    # ==================================================
                    # INT / FP execution-domain edge (ref: _domain_cycle)
                    # ==================================================
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
                            # new completions: every parked clock may move.
                            # Catch each up to this edge (an edge at this
                            # time pops first if its tag is lower) and put
                            # its next edge on the heap
                            tie = nextafter(time_ns, _INF)
                            for ptag in pk:
                                stop = tie if ptag < tag else time_ns
                                if next_edge[ptag] < stop:
                                    _catch_up(clk, ptag, stop)
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
                                # `best` without a new completion: park,
                                # unless the next edge is already that late
                                if best > max_time_ns:
                                    best = max_time_ns
                                if best > next_edge[tag]:
                                    pk.append(tag)
                                    pk_bound[tag] = best
                                    if best < pk_lim:
                                        pk_lim = best
                                    continue
                            elif best != _INF and best > time_ns + 2.0 * per:
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
                            if pk and dtag in pk:
                                # a parked domain gets work: catch its clock
                                # up to now for the arithmetic below, which
                                # reads its next edge, and put that edge on
                                # the heap
                                if next_edge[dtag] < time_ns:
                                    _catch_up(clk, dtag, time_ns)
                                pk.remove(dtag)
                                seq += 1
                                heappush(heap, (next_edge[dtag], dtag, seq, 0))
                                pk_lim = _INF
                                for ptag in pk:
                                    if pk_bound[ptag] < pk_lim:
                                        pk_lim = pk_bound[ptag]
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
                            elif (
                                not retired_now
                                and rob_entries[0].done_ns > next_edge[0]
                            ):
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
                if log_left:
                    log_left -= 1
                    occ_log.append(occs[1])
                    occ_log.append(occs[2])
                    occ_log.append(occs[3])
                for dtag, denum, ctrl, reg, sched, mon in ctrl_rows:
                    if sched is not None and time_ns < sched._busy_until_ns:
                        # an Act is in progress: observe would only store
                        # the occupancy for the next slope (DESIGN §6d)
                        mon._prev = occs[dtag]
                        continue
                    command = ctrl.observe(time_ns, occs[dtag], reg._current_ghz)
                    if command is not None:
                        apply_command(time_ns, denum, reg, command)
                        if pause[dtag] > time_ns and dtag in pk:
                            # a relock pause: the parked domain's next edge
                            # does work (gated idle, a wake timer) if it
                            # falls inside it
                            tie = nextafter(time_ns, _INF)
                            if next_edge[dtag] < tie:
                                _catch_up(clk, dtag, tie)
                            if next_edge[dtag] < pause[dtag]:
                                pk.remove(dtag)
                                seq += 1
                                heappush(heap, (next_edge[dtag], dtag, seq, 0))
                                pk_lim = _INF
                                for ptag in pk:
                                    if pk_bound[ptag] < pk_lim:
                                        pk_lim = pk_bound[ptag]
                if prof is not None:
                    t2 = perf_counter()  # statcheck: disable=DET002 -- profiling only
                    prof_add("observe", t2 - t1)
                # -- slew -------------------------------------------------
                for dtag, reg, max_move, neg_max_move, rows in slew_rows:
                    cur = reg._current_ghz
                    tgt = reg._target_ghz
                    if tgt != cur:
                        if dtag in pk:
                            # its owed edges run at the period and gated
                            # energy that this tick moves
                            tie = nextafter(time_ns, _INF)
                            if next_edge[dtag] < tie:
                                _catch_up(clk, dtag, tie)
                        # ref: regulator.advance(dt) -- the same floats;
                        # max/min/abs become comparisons (ties give the
                        # same float)
                        delta = tgt - cur
                        if delta > max_move:
                            cur += max_move
                            reg.total_travel_ghz += max_move
                        elif delta < neg_max_move:
                            cur += neg_max_move
                            reg.total_travel_ghz += max_move
                        else:
                            cur += delta
                            reg.total_travel_ghz += delta if delta > 0.0 else -delta
                        if -1e-12 < tgt - cur < 1e-12:
                            cur = tgt
                        reg._current_ghz = cur
                        # ref: voltage_for, power.background and
                        # _refresh_energy_coefficients at the new frequency
                        row = rows.get(cur)
                        if row is None:
                            row = row_for(dtag, cur)
                        (
                            reg._voltage,
                            bg_awake[dtag],
                            bg_asleep[dtag],
                            abe[dtag],
                            ase[dtag],
                            ge[dtag],
                        ) = row
                        # ref: clock.set_frequency(current)
                        if cur != freqs[dtag]:
                            freqs[dtag] = cur
                            p = 1.0 / cur
                            periods[dtag] = p
                            neg04[dtag] = -0.4 * p
                            pos04[dtag] = 0.4 * p
                    fsum[dtag] += cur
                    # ref: energy.add(domain, power.background(...))
                    bg_e[dtag] += bg_asleep[dtag] if sleeping[dtag] else bg_awake[dtag]
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
                    # enum-keyed occupancy mapping.  It reads each
                    # domain's energy, which parked clocks owe up to now.
                    tie = nextafter(time_ns, _INF)
                    for ptag in pk:
                        if next_edge[ptag] < tie:
                            _catch_up(clk, ptag, tie)
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
        # no clock is parked here, so none owes an edge: the loop ends on a
        # popped front-end edge, and a parked domain's queue would still
        # hold an unissued, hence unretired, instruction (DESIGN §6d item 6)
        for denum, tag in edge_tags:
            bd[denum] = bg_e[tag]
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
        if tapes:
            for tag in (0, 1, 2, 3):
                tape = tapes[tag]
                advance(clocks[tag]._rng, tape.start, tpos[tag])
                tape.trim()
        for domain, tag in exec_tags:
            self._sleeping[domain] = sleeping[tag]
            self._timer_target[domain] = timer_target[tag]
            self._wake_gen[domain] = wake_gen[tag]
            self._freq_sum[domain] = fsum[tag]
        self._freq_samples = freq_samples
        self.occupancy_log = occ_log

        if prof is not None:
            prof.run_finished(samples=freq_samples)
        return self._result(finish_ns)
