"""Symbolic fast-forward for steady-state loops.

The benchmarks this study measures have *statically known* per-iteration
work (the paper's whole premise: ``1 + 3·MAX`` instructions, exactly),
and the core already retires them in closed-form slices bounded by
interrupt deadlines.  What remains O(interrupts) — and dominates long
sweeps — is the Python cost of every slice retirement and every timer
delivery: a dict of event deltas, a PMU scan, a handler chunk walk.

This module removes that cost without changing a single bit of output.
After ``K`` warm iterations have been observed through the slow path
(periodicity detection: the memoized (body, address) CPI stream must be
constant), the engine compiles the *entire* slice-and-deliver loop for
one (loop, machine template) pair into a flat Python function with
every per-iteration delta, handler-chunk charge, and wall-clock
increment baked in as constants.  The compiled function replays each
timer interrupt at exactly the cycle boundary the interpreter would:
same skid draws, same handler attribution, same float-addition order,
same RNG stream position.  Anything it cannot replay exactly — an I/O
arrival, whose handler size is drawn per delivery — it hands back to
the real :class:`~repro.kernel.interrupts.InterruptController` at a
synchronized machine state, then resumes.

Byte-identity is an invariant, not a goal: every arithmetic statement
in the generated code mirrors one statement of the slow path, with the
same operand values and the same (left-associative) evaluation order.
The golden matrix and the randomized differential suite in
``tests/cpu/test_fastforward.py`` pin it.

Anything non-periodic bails out to full simulation and is counted in
``repro_ff_bailouts_total{reason=}``:

========== ============================================================
reason      trigger
========== ============================================================
governor    ``ondemand`` cpufreq governor (clock may retune mid-loop)
multithread a context switch could occur inside the loop
tracer      a retirement observer is attached (wants every slice)
sampling    a live counter interrupts on overflow (sampling mode)
masked      loop entered with interrupt delivery suppressed
nonstock    subclassed controller/scheduler/PMU/frequency policy
aperiodic   observed CPI deviates from the warmed model
wrap-risk   a counter could wrap inside the fast-forwarded span
tsc-skew    TSC and cycle clock disagree (someone wrote the TSC)
io-burst    too many I/O excursions in one engagement
========== ============================================================

Knobs: ``--fast-forward {auto,on,off}`` / ``REPRO_FF`` (read once, like
``REPRO_SNAPSHOTS``) select the mode — ``auto`` (default) engages only
for loops of at least :data:`AUTO_MIN_TRIPS` trips, ``on`` engages for
any warmed loop, ``off`` disables the engine entirely.
``--ff-warmup`` / ``REPRO_FF_WARMUP`` set ``K``.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

from repro.cpu.events import Event, PrivFilter, PrivLevel, events_from_work
from repro.cpu.frequency import Governor
from repro.errors import ConfigurationError
from repro.isa.work import WorkVector

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cpu.core import Core
    from repro.isa.block import Chunk, Loop

#: ``auto`` mode ignores loops shorter than this; the slow path already
#: handles them in a few slices and the engagement bookkeeping would
#: cost more than it saves.
AUTO_MIN_TRIPS = 1000

#: Default number of warm iterations observed through the slow path
#: before a loop's model is trusted.
DEFAULT_WARMUP = 64

#: I/O excursions tolerated per engagement before the engine declares
#: the interrupt stream aperiodic and finishes the loop slowly.
IO_BURST_LIMIT = 64

_MODES = ("auto", "on", "off")


def parse_ff_mode(text: str) -> str:
    """Validate a fast-forward mode string (CLI/env)."""
    norm = str(text).strip().lower()
    if norm not in _MODES:
        raise ConfigurationError(
            f"fast-forward mode must be one of auto, on, off; got {text!r}"
        )
    return norm


def parse_ff_warmup(value: "str | int") -> int:
    """Validate a fast-forward warmup count (CLI/env)."""
    try:
        warmup = int(value)
    except (TypeError, ValueError):
        raise ConfigurationError(
            f"fast-forward warmup must be an integer >= 1, got {value!r}"
        ) from None
    if warmup < 1:
        raise ConfigurationError(
            f"fast-forward warmup must be an integer >= 1, got {value!r}"
        )
    return warmup


# -- accounting --------------------------------------------------------------


@dataclass
class FfStats:
    """Process-lifetime fast-forward accounting (metrics registry)."""

    engagements: int = 0
    iterations_skipped: int = 0
    io_excursions: int = 0
    bailouts: dict[str, int] = field(default_factory=dict)

    def bail(self, reason: str) -> None:
        self.bailouts[reason] = self.bailouts.get(reason, 0) + 1

    @property
    def bailouts_total(self) -> int:
        return sum(self.bailouts.values())

    def reset(self) -> None:
        self.engagements = 0
        self.iterations_skipped = 0
        self.io_excursions = 0
        self.bailouts.clear()


#: Read by the unified metrics registry
#: (``repro_ff_iterations_skipped_total`` / ``repro_ff_bailouts_total``).
GLOBAL_STATS = FfStats()


# -- the model and plan layers ----------------------------------------------


class _LoopModel:
    """Warm-up state for one (loop shape, placement, clock) pair."""

    __slots__ = ("observed", "cpi", "templates")

    def __init__(self, cpi: float) -> None:
        self.observed = 0
        self.cpi = cpi
        #: structural signature -> _Template (usually exactly one per
        #: model: every machine booted from the same template programs
        #: the same counters).
        self.templates: dict[tuple, "_Template"] = {}


@dataclass
class _Template:
    """A compiled replay function plus the spec to bind it to a core."""

    fn: Callable
    #: slot spec: ("p"|"f", index) per live counter, in PMU scan order.
    slots: tuple[tuple[str, int], ...]
    #: per-slot (coef, const) upper bounds on the value added during one
    #: engagement of ``rem`` iterations, for the wrap guard.
    wrap: tuple[tuple[float, float], ...]
    sampling: bool
    #: strong refs keeping the kernel chunks (whose ids are part of the
    #: signature) alive, so a recycled id can never alias a stale plan.
    chunks: tuple


class _Plan:
    """A template bound to one core (counter objects resolved).

    Everything the per-call hot path needs is resolved here once, so an
    engaged ``execute_loop`` costs a handful of identity checks plus the
    compiled function itself.
    """

    __slots__ = (
        "model", "template", "loop", "address", "epoch", "hz", "mode",
        "warm", "cobjs", "wrap", "wrap_bound", "fn", "ctl", "sched", "rng",
    )

    def __init__(self, model, template, loop, address, epoch, hz, mode,
                 warm, cobjs, wrap, wrap_bound, ctl, rng) -> None:
        self.model = model
        self.template = template
        self.loop = loop
        self.address = address
        self.epoch = epoch
        self.hz = hz
        self.mode = mode
        self.warm = warm
        self.cobjs = cobjs
        #: (counter, start-value threshold) pairs: engaging with a
        #: counter at or above its threshold risks a wrap mid-replay.
        self.wrap = wrap
        #: (counter, limit, per-execution bound) triples, for sizing
        #: how many sweep executions fit before a possible wrap.
        self.wrap_bound = wrap_bound
        self.fn = template.fn
        self.ctl = ctl
        self.sched = ctl.scheduler
        self.rng = rng


# Stock-type handles, resolved lazily to keep the cpu layer importable
# without the kernel layer.
_STOCK: tuple | None = None


def _stock_types() -> tuple:
    global _STOCK
    if _STOCK is None:
        from repro.cpu.frequency import FrequencyPolicy
        from repro.cpu.pmu import Pmu
        from repro.kernel.interrupts import InterruptController
        from repro.kernel.scheduler import Scheduler

        _STOCK = (InterruptController, Scheduler, Pmu, FrequencyPolicy)
    return _STOCK


_current_collector: Callable | None = None


def _collector() -> Any:
    """obs.spans.current_collector, imported lazily and cached."""
    global _current_collector
    if _current_collector is None:
        from repro.obs.spans import current_collector

        _current_collector = current_collector
    return _current_collector()


# -- the engine --------------------------------------------------------------


class FastForwardEngine:
    """Compiles and runs symbolic replays of steady-state loops.

    One engine is shared process-wide (see :func:`default_engine`):
    loop models warm across machine boots, exactly like the snapshot
    store shares boot images, and compiled functions are reused by
    every core whose structural signature matches.
    """

    def __init__(
        self,
        min_trips: int = AUTO_MIN_TRIPS,
        warmup: int = DEFAULT_WARMUP,
        io_burst_limit: int = IO_BURST_LIMIT,
    ) -> None:
        if warmup < 1:
            raise ConfigurationError(
                f"fast-forward warmup must be an integer >= 1, got {warmup}"
            )
        self.min_trips = min_trips
        self.warmup = warmup
        self.io_burst_limit = io_burst_limit
        self._models: dict[tuple, _LoopModel] = {}
        self.stats = GLOBAL_STATS

    def reset_models(self) -> None:
        """Drop all warmed models (worker bootstrap: re-derive, never
        inherit a forked parent's models)."""
        self._models.clear()

    # -- entry point -------------------------------------------------------

    def execute(self, core: "Core", loop: "Loop", address: int) -> bool:
        """Try to run ``loop`` symbolically; True when fully handled."""
        if loop.trips < self.min_trips:
            return False
        plan = self._eligible(core, loop, address)
        if plan is None:
            return False
        for cobj, threshold in plan.wrap:
            if cobj._value >= threshold:
                self.stats.bail("wrap-risk")
                return False
        self._engage(core, loop, address, plan, 1)
        return True

    def execute_sweep(
        self, core: "Core", loop: "Loop", address: int, repeats: int
    ) -> int:
        """Replay up to ``repeats`` back-to-back executions of ``loop``.

        Returns the number of *complete* executions handled (0 when
        ineligible); the caller runs the remainder through the slow
        path.  The wrap guard bounds how many executions fit before any
        live counter could wrap, so a long sweep near a wrap boundary
        is replayed in a safe prefix and handed back.
        """
        if loop.trips * repeats < self.min_trips:
            return 0
        plan = self._eligible(core, loop, address)
        if plan is None:
            return 0
        reps = repeats
        for cobj, limit, bound in plan.wrap_bound:
            if bound > 0.0:
                safe = int((limit - float(cobj._value)) / bound) - 1
                if safe < reps:
                    reps = safe
        if reps < 1:
            self.stats.bail("wrap-risk")
            return 0
        return self._engage(core, loop, address, plan, reps)

    def _eligible(self, core, loop, address) -> "_Plan | None":
        """Per-call eligibility: the cached plan, or None to run slow.

        An engaged steady state costs one plan identity check plus a
        handful of dynamic loads; everything expensive lives behind
        :meth:`_replan`.
        """
        pmu = core.pmu
        plan = core._ff_plan
        if not (
            plan is not None
            and plan.loop is loop
            and plan.epoch == pmu.config_epoch
            and plan.address == address
            and plan.hz == core.freq.current_hz
            and plan.mode is core.mode
            and plan.warm == core.loop_warmup_cycles
            and plan.ctl is core.interrupt_source
            and plan.rng is core.rng
        ):
            plan = self._replan(core, loop, address, pmu)
            if plan is None:
                return None
        if not plan.ctl.enabled:
            # Nothing to replay: the slow path is already one slice.
            return None
        if core.interrupts_masked:
            self.stats.bail("masked")
            return None
        if core.tracer is not None:
            self.stats.bail("tracer")
            return None
        if core.freq.governor is Governor.ONDEMAND:
            self.stats.bail("governor")
            return None
        sched = plan.sched
        if (
            len(sched.threads) > 1
            and sched.current is not None
            and not sched.tick_is_closed_form()
        ):
            self.stats.bail("multithread")
            return None
        if pmu._tsc != core.cycle:
            self.stats.bail("tsc-skew")
            return None
        return plan

    def _engage(self, core, loop, address, plan, reps: int) -> int:
        """Run the compiled replay for ``reps`` executions; returns the
        number of complete executions handled (slow-finished bail tails
        included)."""
        trips = loop.trips
        pmu = core.pmu
        handle = sp = None
        if _collector() is not None:
            from repro.obs.spans import span

            handle = span(
                "engine.fastforward", category="cpu",
                iterations=trips * reps, repeats=reps,
                label=loop.label or loop.body.label,
            )
            sp = handle.__enter__()
        try:
            left, rem, stage, status = plan.fn(
                core, pmu, plan.ctl, plan.sched, core.rng,
                trips, reps, trips, 0, plan.cobjs,
            )
            if status:
                done, skipped, bailed = self._drive_io(
                    core, loop, address, plan, reps, left, rem, stage
                )
            else:
                done, skipped, bailed = reps, reps * trips, False
            if sp is not None:
                sp.set(skipped=skipped, io_burst=bailed)
        finally:
            if handle is not None:
                handle.__exit__(None, None, None)
        stats = self.stats
        stats.engagements += 1
        stats.iterations_skipped += skipped
        plan.model.observed += skipped
        return done

    def _drive_io(self, core, loop, address, plan, reps0, reps, rem, stage
                  ) -> tuple[int, int, bool]:
        """Service a pending I/O deadline, then resume the replay.

        Entered with the compiled function parked at an I/O boundary:
        machine state is synchronized and the RNG is rewound to its
        true position, so the real controller delivers the interrupt
        exactly as the slow path would.  Returns (complete executions,
        iterations replayed symbolically, hit the burst limit).
        """
        ctl = plan.ctl
        fn = plan.fn
        sched = plan.sched
        pmu = core.pmu
        rng = core.rng
        cobjs = plan.cobjs
        trips = loop.trips
        stats = self.stats
        excursions = 0
        parked = (reps, rem, stage)
        while True:
            # Deliver first (poll handles every due deadline, exactly
            # as the slow path's post-retire poll would), then decide
            # whether the stream looks like a storm.
            ctl.poll(core)
            excursions += 1
            stats.io_excursions += 1
            if excursions > self.io_burst_limit:
                stats.bail("io-burst")
                if stage == 1 and core.loop_warmup_cycles > 0:
                    # Parked between header and warm-up: replay the
                    # warm-up retirement through the slow path (same
                    # draw, same poll) before handing over the slices.
                    core.retire(
                        WorkVector.zero(),
                        cycles=float(
                            core.rng.uniform(0, core.loop_warmup_cycles)
                        ),
                    )
                body_address = address + loop.header.size_bytes
                core._run_loop_slices(loop, body_address, rem)
                done = reps0 - reps + 1  # in-flight one finished slowly
                skipped = (reps0 - reps) * trips + (trips - rem)
                return done, skipped, True
            reps, rem, stage, status = fn(
                core, pmu, ctl, sched, rng, trips, reps, rem, stage, cobjs
            )
            if status == 0:
                return reps0, reps0 * trips, False
            # A normal stream makes progress between excursions; only a
            # replay parked at the same spot twice counts toward the
            # burst limit (a backstop — stock controllers always move).
            now = (reps, rem, stage)
            if now != parked:
                excursions = 0
                parked = now

    def _replan(self, core, loop, address, pmu) -> "_Plan | None":
        """Cold path: (re)build and cache the plan for this placement."""
        ctl = core.interrupt_source
        if ctl is None or not getattr(ctl, "enabled", False):
            return None
        plan = self._build_plan(core, loop, address, ctl, pmu,
                                core.freq.current_hz)
        if plan is not None:
            core._ff_plan = plan
        return plan

    # -- plan construction -------------------------------------------------

    def _build_plan(self, core, loop, address, ctl, pmu, hz) -> "_Plan | None":
        stats = self.stats
        stock_ctl, stock_sched, stock_pmu, stock_freq = _stock_types()
        sched = ctl.scheduler
        if not (
            type(ctl) is stock_ctl
            and type(sched) is stock_sched
            and type(pmu) is stock_pmu
            and type(core.freq) is stock_freq
        ):
            stats.bail("nonstock")
            return None
        body_address = address + loop.header.size_bytes
        ratio = hz / core.uarch.freq_hz
        key = (loop.body, loop.header, address, core.timing, hz, ratio)
        model = self._models.get(key)
        if model is None:
            cpi = core.timing.loop_cycles_per_iteration(
                loop.body, body_address, ratio
            )
            model = _LoopModel(cpi)
            self._models[key] = model
        if model.observed < self.warmup:
            # Not warmed yet: let the slow path observe these trips.
            model.observed += loop.trips
            return None
        memo_cpi = core._loop_cpi_memo.get((loop.body, body_address))
        if memo_cpi is not None and memo_cpi != model.cpi:
            # The CPI stream deviated from the warmed model — the loop
            # is not periodic on this core; re-warm from scratch.
            stats.bail("aperiodic")
            model.observed = 0
            return None

        # Structural signature of everything the generated code bakes in.
        slots: list[tuple[str, int]] = []
        cfg: list[tuple] = []
        sampling = False
        for i, c in enumerate(pmu.counters):
            config = c.config
            if config is None or not config.enabled:
                continue
            slots.append(("p", i))
            cfg.append((0, i, config.event, config.priv.value,
                        config.interrupt_on_overflow, c.width))
            sampling = sampling or config.interrupt_on_overflow
        for i, f in enumerate(pmu.fixed):
            if f.priv is PrivFilter.NONE:
                continue
            slots.append(("f", i))
            cfg.append((1, i, f.event, f.priv.value, False, f.width))
        chunks = (ctl._irq_entry, ctl._tick_body, ctl._ext_hook, ctl._irq_exit)
        sig = (
            tuple(cfg),
            core.mode is PrivLevel.USER,
            hz,
            core.skid_probability,
            core.skid_bias,
            core.skid_magnitude,
            core.loop_warmup_cycles,
            sched.quantum_ticks,
            ctl.tick_period_s,
            ctl.io_armed,
            tuple(id(chunk) for chunk in chunks),
        )
        template = model.templates.get(sig)
        if template is None:
            template = _compile_template(core, loop, body_address, model.cpi,
                                         ctl, pmu, hz, ratio, tuple(slots))
            model.templates[sig] = template
        if template.sampling:
            stats.bail("sampling")
            return None
        cobjs = tuple(
            pmu.counters[i] if kind == "p" else pmu.fixed[i]
            for kind, i in template.slots
        )
        # The plan is bound to this exact loop, so the trip count is a
        # constant: fold each slot's conservative engagement bound into
        # a start-value threshold checked with a single compare.
        trips = loop.trips
        bounds = [coef * trips + const for coef, const in template.wrap]
        wrap = tuple(
            (cobj, float(cobj.limit) - bound)
            for cobj, bound in zip(cobjs, bounds)
        )
        wrap_bound = tuple(
            (cobj, float(cobj.limit), bound)
            for cobj, bound in zip(cobjs, bounds)
        )
        return _Plan(
            model, template, loop, address, pmu.config_epoch, hz,
            core.mode, core.loop_warmup_cycles, cobjs, wrap, wrap_bound,
            ctl, core.rng,
        )


# -- code generation ---------------------------------------------------------

#: compiled-source -> function; sources embed every constant as a
#: literal, so identical source text is identical behaviour.
_FN_CACHE: dict[str, Callable] = {}

#: Conservative per-delivery upper bounds on I/O handler events (the
#: handler size is drawn per delivery; the wrap guard only needs a
#: bound).  Scaled from the largest handler the calibration allows.
_IO_EVENT_BOUND = {
    Event.INSTR_RETIRED: 1.0,
    Event.BRANCHES_RETIRED: 0.12,
    Event.TAKEN_BRANCHES: 0.08,
    Event.LOADS_RETIRED: 0.22,
    Event.STORES_RETIRED: 0.14,
    Event.DCACHE_MISSES: 0.01,
    Event.CYCLES: 20.0,
    Event.BUS_CYCLES: 2.0,
}


def _chunk_consts(chunk: "Chunk", core, ratio: float) -> tuple[dict, float]:
    """(event deltas incl. cycle-domain, cycle cost) for one chunk.

    Uses the same timing call as :meth:`Core.retire`, so the constants
    are bitwise what the slow path would compute.
    """
    cycles = core.timing.cycles_for_work(chunk.work, ratio)
    deltas: dict[Event, float | int] = events_from_work(chunk.work)
    deltas[Event.CYCLES] = cycles
    deltas[Event.BUS_CYCLES] = cycles * 0.1
    return deltas, cycles


def _slot_amount(event: Event, deltas: dict, cycles_var: str) -> str | None:
    """Source expression adding one retire's charge for ``event``."""
    if event is Event.CYCLES:
        return cycles_var
    if event is Event.BUS_CYCLES:
        return f"{cycles_var} * 0.1"
    n = deltas.get(event, 0)
    if not n:
        return None
    return repr(n)


def _compile_template(core, loop, body_address, cpi, ctl, pmu, hz, ratio,
                      slots) -> _Template:
    """Generate, compile, and wrap the replay function for one shape."""
    level = core.mode
    warm = core.loop_warmup_cycles
    p_skid = core.skid_probability
    p_up = (1.0 + core.skid_bias) / 2.0
    magnitude = core.skid_magnitude
    quantum = ctl.scheduler.quantum_ticks
    period = ctl.tick_period_s
    io_present = ctl.io_armed
    io_rate = ctl.io_rate_hz

    # Slot metadata in PMU scan order (programmable first, then fixed —
    # the order the PMU binds them; irrelevant to results, since
    # each slot has its own accumulator, but kept for readability).
    spec = []
    sampling = False
    for kind, i in slots:
        if kind == "p":
            c = pmu.counters[i]
            event, priv = c.config.event, c.config.priv
            sampling = sampling or c.config.interrupt_on_overflow
        else:
            f = pmu.fixed[i]
            event, priv = f.event, f.priv
        spec.append({
            "var": f"v{len(spec)}",
            "obj": f"c{len(spec)}",
            "event": event,
            "usr": priv.matches(PrivLevel.USER),
            "os": priv.matches(PrivLevel.KERNEL),
        })

    chunks = [ctl._irq_entry, ctl._tick_body]
    if ctl._ext_hook is not None:
        chunks.append(ctl._ext_hook)
    chunks.append(ctl._irq_exit)
    chunk_consts = [_chunk_consts(chunk, core, ratio) for chunk in chunks]
    tick_cycles = [c for _, c in chunk_consts]

    body_deltas = events_from_work(loop.body.work)
    header = loop.header
    header_live = not header.work.is_zero
    if header_live:
        header_deltas, header_cycles = _chunk_consts(header, core, ratio)
    else:
        header_deltas, header_cycles = {}, 0.0

    # Skid armed means up to two draws per tick: worth a block draw
    # (one numpy call) with a rewind at exit.  Unarmed leaves at most
    # the single warm-up draw, taken scalar.
    buffered = p_skid > 0
    tick_per_iter = cpi / (hz * period)
    draw_coef = 2.0 * tick_per_iter

    def matching(ctx_level: PrivLevel):
        key = "usr" if ctx_level is PrivLevel.USER else "os"
        return [s for s in spec if s[key]]

    lines: list[str] = []
    emit = lines.append

    def emit_draw(indent: str) -> None:
        # float() strips the numpy scalar a fallback draw returns: the
        # bits are unchanged, but a np.float64 would taint every later
        # arithmetic statement with ~20x-slower numpy scalar ops.
        emit(f"{indent}if bi < bn:")
        emit(f"{indent}    r = buf[bi]")
        emit(f"{indent}else:")
        emit(f"{indent}    r = float(rd())")
        emit(f"{indent}bi = bi + 1")

    def emit_epilogue(indent: str, stage: str, status: str) -> None:
        emit(f"{indent}core.cycle = cyc")
        emit(f"{indent}core.wall_s = wall")
        emit(f"{indent}pmu._tsc = cyc")
        for s in spec:
            emit(f"{indent}{s['obj']}._value = {s['var']}")
        emit(f"{indent}ctl.next_timer_s = next_t")
        emit(f"{indent}ctl.ticks_delivered = ticks")
        emit(f"{indent}sched._ticks_in_quantum = tiq")
        if buffered:
            # advance() also clears numpy's cached uint32 half-word; a
            # sequential-draw run would have left that cache (set by
            # e.g. an I/O handler's bounded integers draw) untouched,
            # and the next bounded draw would consume it.  Preserve it
            # across the rewind or that draw diverges from the slow
            # path.
            emit(f"{indent}if bi < bn:")
            emit(f"{indent}    bg = rng.bit_generator")
            emit(f"{indent}    st = bg.state")
            emit(f"{indent}    bg.advance(bi - bn)")
            emit(f"{indent}    if st['has_uint32']:")
            emit(f"{indent}        st2 = bg.state")
            emit(f"{indent}        st2['has_uint32'] = 1")
            emit(f"{indent}        st2['uinteger'] = st['uinteger']")
            emit(f"{indent}        bg.state = st2")
        emit(f"{indent}return (reps, rem, {stage}, {status})")

    def emit_delivery(indent: str, stage: int) -> None:
        """The inlined equivalent of InterruptController.poll().

        ``dl`` (the earliest armed deadline) is maintained as a local
        across the whole function, so the common not-due case is a
        single compare and the loop is entered knowing a delivery is
        due.
        """
        i1 = indent + "    "
        i2 = i1 + "    "
        emit(f"{indent}if dl <= wall + 1e-15:")
        emit(f"{i1}while 1:")
        if io_present:
            emit(f"{i2}if dl == next_t:")
            tick = i2 + "    "
        else:
            tick = i2
        # -- _deliver_timer, unrolled --
        emit(f"{tick}next_t = next_t + {period!r}")
        emit(f"{tick}ticks = ticks + 1")
        if p_skid > 0:
            emit_draw(tick)
            emit(f"{tick}if r < {p_skid!r}:")
            emit_draw(tick + "    ")
            skid_slots = [s for s in spec
                          if s["usr"] and s["event"] is Event.INSTR_RETIRED]
            emit(f"{tick}    if r < {p_up!r}:")
            if magnitude and skid_slots:
                for s in skid_slots:
                    emit(f"{tick}        {s['var']} = {s['var']} + {magnitude!r}")
                emit(f"{tick}    else:")
                for s in skid_slots:
                    emit(f"{tick}        {s['var']} = {s['var']} - {magnitude!r}")
            else:
                emit(f"{tick}        pass")
                emit(f"{tick}    else:")
                emit(f"{tick}        pass")
        for s in matching(PrivLevel.KERNEL):
            if s["event"] is not Event.CYCLES and s["event"] is not Event.BUS_CYCLES:
                # Event-count slots only ever accumulate integers (the
                # warm-up float charge goes to cycle-domain slots, skid
                # nudges are integral), so every partial sum of the
                # per-chunk chain is exactly representable and the
                # folded constant is bit-identical to chained adds.
                total = sum(c[0].get(s["event"], 0) for c in chunk_consts)
                if total:
                    emit(f"{tick}{s['var']} = {s['var']} + {total!r}")
                continue
            terms = []
            for deltas, cycles in chunk_consts:
                amount = _slot_amount(s["event"], deltas, repr(cycles))
                if amount is not None:
                    terms.append(amount)
            if terms:
                emit(f"{tick}{s['var']} = {s['var']} + " + " + ".join(terms))
        emit(f"{tick}cyc = cyc + " + " + ".join(repr(c) for c in tick_cycles))
        emit(f"{tick}wall = wall + "
             + " + ".join(repr(c / hz) for c in tick_cycles))
        emit(f"{tick}tiq = tiq + 1")
        emit(f"{tick}if tiq >= {quantum!r}:")
        emit(f"{tick}    tiq = 0")
        if io_present:
            emit(f"{tick}dl = next_t if next_t <= nio else nio")
            emit(f"{i2}else:")
            emit_epilogue(i2 + "    ", str(stage), "1")
        else:
            emit(f"{tick}dl = next_t")
        emit(f"{i2}if dl > wall + 1e-15:")
        emit(f"{i2}    break")

    # -- function body -----------------------------------------------------
    # One invocation replays ``reps`` back-to-back executions of the
    # loop (a *sweep*); single calls pass reps=1.  ``rem``/``stage``
    # describe the in-flight execution so an I/O exit can resume.
    emit("def _ff_run(core, pmu, ctl, sched, rng, trips, reps, rem, stage,"
         " cobjs):")
    # float() on every load: the slow path leaves numpy scalars behind
    # (its own rng draws taint cycle/wall/counter state), and one
    # tainted operand would drag the whole replay onto numpy scalar
    # arithmetic.  Bits are identical either way.
    emit("    cyc = float(core.cycle)")
    emit("    wall = float(core.wall_s)")
    if spec:
        emit("    " + ", ".join(s["obj"] for s in spec)
             + ("," if len(spec) == 1 else "") + " = cobjs")
        for s in spec:
            emit(f"    {s['var']} = float({s['obj']}._value)")
    emit("    next_t = float(ctl.next_timer_s)")
    emit("    ticks = ctl.ticks_delivered")
    emit("    tiq = sched._ticks_in_quantum")
    if io_present:
        emit("    nio = float(ctl.next_io_s)")
        emit("    dl = next_t if next_t <= nio else nio")
    else:
        emit("    dl = next_t")
    if buffered:
        # Block-draw when the expected draw count is worth one numpy
        # call.  The branch taken never changes a drawn value (a block
        # draw equals the same number of sequential draws, and the
        # epilogue rewinds unconsumed positions), so the threshold is
        # pure tuning.
        emit("    rd = rng.random")
        emit(f"    ed = (rem + (reps - 1) * trips) * {draw_coef!r}"
             " + reps * 3.0")
        emit("    if ed > 24.0:")
        emit("        bn = int(ed * 2.0) + 16")
        emit("        if bn > 4096:")
        emit("            bn = 4096")
        emit("        buf = rd(bn).tolist()")
        emit("    else:")
        emit("        bn = 0")
        emit("        buf = None")
        emit("    bi = 0")

    emit("    while 1:")

    # Stage 0: the loop header (execute_chunk semantics).
    emit("        if stage == 0:")
    emit("            stage = 1")
    if header_live:
        for s in matching(level):
            amount = _slot_amount(s["event"], header_deltas,
                                  repr(header_cycles))
            if amount is not None:
                emit(f"            {s['var']} = {s['var']} + {amount}")
        emit(f"            cyc = cyc + {header_cycles!r}")
        emit(f"            wall = wall + {header_cycles / hz!r}")
        emit_delivery("            ", 1)

    # Stage 1: the warm-up retirement (cycles only, one uniform draw).
    emit("        if stage == 1:")
    emit("            stage = 2")
    if warm > 0:
        if buffered:
            emit_draw("            ")
        else:
            emit("            r = float(rng.random())")
        emit(f"            wc = {warm!r} * r")
        emit("            if wc:")
        for s in matching(level):
            if s["event"] is Event.CYCLES:
                emit(f"                {s['var']} = {s['var']} + wc")
            elif s["event"] is Event.BUS_CYCLES:
                emit(f"                {s['var']} = {s['var']} + wc * 0.1")
        emit("                cyc = cyc + wc")
        emit(f"                wall = wall + wc / {hz!r}")
        emit_delivery("                ", 2)

    # Stage 2: closed-form slices bounded at interrupt deadlines.
    emit("        while rem > 0:")
    emit(f"            h = (dl - wall) * {hz!r}")
    emit("            if h < 0.0:")
    emit("                h = 0.0")
    emit(f"            due = ceil(h / {cpi!r})")
    emit("            if due < 1:")
    emit("                due = 1")
    emit("            t = rem if rem < due else due")
    emit(f"            c = t * {cpi!r}")
    for s in matching(level):
        amount = _slot_amount(s["event"], body_deltas, "c")
        if amount is None:
            continue
        if amount not in ("c", "c * 0.1"):
            amount = f"t * {amount}" if amount != "1" else "t"
        emit(f"            {s['var']} = {s['var']} + {amount}")
    emit("            cyc = cyc + c")
    emit(f"            wall = wall + c / {hz!r}")
    emit("            rem = rem - t")
    emit_delivery("            ", 2)

    # Sweep boundary: next back-to-back execution of the same loop.
    emit("        reps = reps - 1")
    emit("        if reps <= 0:")
    emit("            break")
    emit("        rem = trips")
    emit("        stage = 0")
    if buffered:
        emit("        if bn and bi >= bn:")
        emit("            buf = rd(bn).tolist()")
        emit("            bi = 0")
    emit_epilogue("    ", "2", "0")

    source = "\n".join(lines)
    fn = _FN_CACHE.get(source)
    if fn is None:
        namespace: dict[str, Any] = {"ceil": math.ceil}
        exec(compile(source, "<fastforward>", "exec"), namespace)
        fn = namespace["_ff_run"]
        fn.__ff_source__ = source
        _FN_CACHE[source] = fn

    # Wrap-guard coefficients: a conservative upper bound, per slot, on
    # the amount one engagement of ``rem`` trips can add.
    io_per_iter = (cpi / hz) * io_rate if io_present else 0.0
    io_instr_hi = float(ctl.build.io_handler_instructions[1])
    wrap: list[tuple[float, float]] = []
    for s in spec:
        event = s["event"]
        per_iter = 0.0
        if level is PrivLevel.USER and s["usr"] or \
                level is PrivLevel.KERNEL and s["os"]:
            if event is Event.CYCLES:
                per_iter = cpi
            elif event is Event.BUS_CYCLES:
                per_iter = cpi * 0.1
            else:
                per_iter = float(body_deltas.get(event, 0))
        per_tick = 0.0
        if s["os"]:
            for deltas, _ in chunk_consts:
                per_tick += float(deltas.get(event, 0))
        if s["usr"] and event is Event.INSTR_RETIRED:
            per_tick += float(magnitude)
        per_io = _IO_EVENT_BOUND.get(event, 0.0) * io_instr_hi
        if not s["os"]:
            per_io = 0.0
        coef = (
            per_iter
            + 2.0 * tick_per_iter * per_tick
            + 2.0 * io_per_iter * per_io
        )
        const = (
            float(header_deltas.get(event, 0))
            + (warm if event is Event.CYCLES else 0.0)
            + (warm * 0.1 if event is Event.BUS_CYCLES else 0.0)
            + 4.0 * (per_tick + per_io)
            + 64.0
        )
        wrap.append((coef * 1.5, const))

    return _Template(
        fn=fn,
        slots=slots,
        wrap=tuple(wrap),
        sampling=sampling,
        chunks=tuple(chunks) + (loop.body, header),
    )


# -- the process-wide default engine ----------------------------------------

_UNSET = object()
_engine: "FastForwardEngine | None | object" = _UNSET


def _build_engine(mode: str, warmup: int) -> "FastForwardEngine | None":
    if mode == "off":
        return None
    min_trips = 1 if mode == "on" else AUTO_MIN_TRIPS
    return FastForwardEngine(min_trips=min_trips, warmup=warmup)


def default_engine() -> "FastForwardEngine | None":
    """The shared engine boots attach to, or None when disabled.

    ``REPRO_FF`` (``auto``/``on``/``off``) and ``REPRO_FF_WARMUP`` are
    read once, at first use — the same read-once kill-switch contract
    as ``REPRO_SNAPSHOTS``.
    """
    global _engine
    if _engine is _UNSET:
        mode = parse_ff_mode(os.environ.get("REPRO_FF", "auto") or "auto")
        raw_warmup = os.environ.get("REPRO_FF_WARMUP")
        warmup = parse_ff_warmup(raw_warmup) if raw_warmup else DEFAULT_WARMUP
        _engine = _build_engine(mode, warmup)
    return _engine  # type: ignore[return-value]


def configure_fastforward(
    mode: str = "auto", warmup: int = DEFAULT_WARMUP
) -> "FastForwardEngine | None":
    """Replace the process-wide engine (CLI and test hook)."""
    global _engine
    _engine = _build_engine(parse_ff_mode(mode), parse_ff_warmup(warmup))
    return _engine  # type: ignore[return-value]


def reset_fastforward() -> None:
    """Forget the configured engine and its accounting (test hook)."""
    global _engine
    _engine = _UNSET
    GLOBAL_STATS.reset()


def reset_worker_state() -> None:
    """Re-derive, never inherit: drop forked-in models and accounting.

    Called from worker bootstrap (the warm backend's ``_worker_main``):
    a forked child inherits the parent's module state, but its machines
    are its own — models must warm from the child's own observations,
    and its stats must not double-count the parent's.
    """
    GLOBAL_STATS.reset()
    engine = _engine
    if engine is not _UNSET and engine is not None:
        engine.reset_models()  # type: ignore[union-attr]
