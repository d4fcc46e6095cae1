#include "sm.hh"

#include <algorithm>
#include <string>
#include <utility>

#include "common/logging.hh"
#include "sched/gates.hh"
#include "sched/gto.hh"
#include "sched/twolevel.hh"

namespace wg {

const char*
schedulerPolicyName(SchedulerPolicy policy)
{
    switch (policy) {
      case SchedulerPolicy::TwoLevel: return "two-level";
      case SchedulerPolicy::Gates: return "gates";
      case SchedulerPolicy::Gto: return "gto";
    }
    return "?";
}

bool
parseSchedulerPolicy(const std::string& name, SchedulerPolicy& out)
{
    for (SchedulerPolicy p : {SchedulerPolicy::TwoLevel,
                              SchedulerPolicy::Gates,
                              SchedulerPolicy::Gto}) {
        if (name == schedulerPolicyName(p)) {
            out = p;
            return true;
        }
    }
    return false;
}

namespace {

// The trace sinks print WarpMigrate args via a location-name table;
// keep the wire encoding pinned to the enum it mirrors.
static_assert(static_cast<int>(WarpLoc::Active) == 0 &&
                  static_cast<int>(WarpLoc::Pending) == 1 &&
                  static_cast<int>(WarpLoc::Waiting) == 2 &&
                  static_cast<int>(WarpLoc::Finished) == 3,
              "trace sinks assume these WarpLoc values");

std::unique_ptr<Scheduler>
makeScheduler(const SmConfig& config)
{
    switch (config.scheduler) {
      case SchedulerPolicy::TwoLevel:
        return std::make_unique<TwoLevelScheduler>();
      case SchedulerPolicy::Gates:
        return std::make_unique<GatesScheduler>(config.gates);
      case SchedulerPolicy::Gto:
        return std::make_unique<GtoScheduler>();
    }
    panic("unknown scheduler policy");
}

} // namespace

Sm::Sm(const SmConfig& config, std::vector<Program> programs,
       std::uint64_t seed, trace::Recorder* trace,
       metrics::EpochSampler* sampler)
    : config_(config), programs_(std::move(programs)),
      scoreboard_(programs_.size()), scheduler_(makeScheduler(config)),
      int_{ExecUnit(UnitClass::Int, 0, config.alu),
           ExecUnit(UnitClass::Int, 1, config.alu)},
      fp_{ExecUnit(UnitClass::Fp, 0, config.alu),
          ExecUnit(UnitClass::Fp, 1, config.alu)},
      sfu_(UnitClass::Sfu, 0, config.sfu),
      ldst_(UnitClass::Ldst, 0, config.ldst),
      mem_(config.mem, Rng(seed, 0xcafef00dd15ea5e5ULL)),
      pg_(config.pg), trace_(trace), sampler_(sampler)
{
    pg_.setTrace(trace_);
    mem_.setTrace(trace_);
    scheduler_->setTrace(trace_);

    if (programs_.empty())
        fatal("Sm: no warps to run");
    if (programs_.size() > kMaxWarpsPerSm)
        fatal("Sm: ", programs_.size(), " warps exceed the ",
              kMaxWarpsPerSm, "-warp bitmask capacity");
    if (config_.issueWidth == 0)
        fatal("Sm: zero issue width");
    if (config_.activeSetCapacity == 0)
        fatal("Sm: zero active-set capacity");
    if (config_.ibufferDepth == 0)
        fatal("Sm: zero i-buffer depth");

    warps_.init(programs_, config_.ibufferDepth);
    waiting_.reserve(programs_.size());
    for (std::size_t w = 0; w < programs_.size(); ++w)
        waiting_.push_back(static_cast<WarpId>(w));
    live_warps_ = warps_.size();
}

void
Sm::refreshWarp(WarpId w)
{
    const WarpMask bit = warpBit(w);
    for (auto& m : readyByClass_)
        m &= ~bit;
    blockedLongMask_ &= ~bit;
    missHeadMask_ &= ~bit;
    if (!warps_.hasHead(w))
        return;
    if (warps_.headClass(w) == UnitClass::Ldst &&
        warps_.head(w).isLongLatency())
        missHeadMask_ |= bit;
    const std::uint32_t rm = warps_.headRegMask(w);
    if (scoreboard_.readyMask(w, rm)) {
        readyByClass_[static_cast<std::size_t>(warps_.headClass(w))] |=
            bit;
    } else if (scoreboard_.blockedOnLongMask(w, rm)) {
        blockedLongMask_ |= bit;
    }
}

void
Sm::writebackPhase()
{
    mem_.tick(now_);

    // Completions retire straight from each unit in the fixed unit
    // order int0, int1, fp0, fp1, sfu, ldst; each touches only its own
    // warp's slot and scoreboard word.
    bool any = false;
    auto retire = [this, &any](const Completion& c) {
        any = true;
        warps_.noteComplete(c.warp);
        if (c.dest != kNoReg) {
            scoreboard_.complete(c.warp, c.dest);
            refreshWarp(c.warp);
        }
    };
    for (auto& u : int_) {
        u.tick(now_);
        u.drainCompletions(now_, retire);
    }
    for (auto& u : fp_) {
        u.tick(now_);
        u.drainCompletions(now_, retire);
    }
    sfu_.tick(now_);
    sfu_.drainCompletions(now_, retire);
    ldst_.tick(now_);
    ldst_.drainCompletions(now_, retire);

    // Un-block pending warps whose long-latency producer returned: a
    // pending warp stays parked exactly while its blocked-long bit
    // holds. Word-wide fast path; the vector walk (which preserves the
    // pending FIFO order) runs only when some warp actually unblocked.
    if (any && (warps_.locMask(WarpLoc::Pending) & ~blockedLongMask_) != 0) {
        std::size_t kept = 0;
        for (std::size_t i = 0; i < pending_.size(); ++i) {
            WarpId w = pending_[i];
            if (hasWarp(blockedLongMask_, w)) {
                pending_[kept++] = w;
            } else {
                warps_.setLoc(w, WarpLoc::Waiting);
                traceMigrate(w, WarpLoc::Waiting);
                waiting_.push_back(w);
            }
        }
        pending_.resize(kept);
    }
}

void
Sm::promotePhase()
{
    std::size_t active = activeSetSize();
    std::size_t take = 0;
    while (active < config_.activeSetCapacity && take < waiting_.size()) {
        WarpId w = waiting_[take++];
        warps_.setLoc(w, WarpLoc::Active);
        traceMigrate(w, WarpLoc::Active);
        lriStamp_[w] = ++lriClock_; // joins at the LRI back
        ++active;
        // The warp's buffered instructions enter the active subset.
        for (std::size_t c = 0; c < kNumUnitClasses; ++c)
            actvAgg_[c] += warps_.bufCount(
                w, static_cast<UnitClass>(c));
    }
    if (take > 0)
        waiting_.erase(waiting_.begin(),
                       waiting_.begin() + static_cast<long>(take));
}

void
Sm::fetchPhase()
{
    // Only warps in the active or pending sets hold i-buffer entries
    // worth refilling; waiting warps are topped up on promotion. The
    // fetchable mask makes the common all-buffers-full cycle two AND
    // gates. Per-warp fetch only touches that warp's own program, so
    // ascending-id mask order is as good as any.
    const WarpMask fa =
        warps_.fetchable() & warps_.locMask(WarpLoc::Active);
    forEachWarp(fa, [&](WarpId w) {
        const bool was_empty = !warps_.hasHead(w);
        warps_.fetch(w, actvAgg_.data());
        if (was_empty)
            refreshWarp(w); // a head appeared
    });
    const WarpMask fp =
        warps_.fetchable() & warps_.locMask(WarpLoc::Pending);
    forEachWarp(fp, [&](WarpId w) {
        const bool was_empty = !warps_.hasHead(w);
        warps_.fetch(w); // pending: not in the ACTV aggregate
        if (was_empty)
            refreshWarp(w);
    });
}

void
Sm::demotePhase()
{
    // A warp leaves the active set only when it drained or its head
    // blocks on a long-latency producer — both are mask bits, so the
    // common nothing-to-demote cycle is one word test.
    const WarpMask move =
        warps_.locMask(WarpLoc::Active) &
        (warps_.drainedMask() | blockedLongMask_);
    if (move == 0)
        return;
    std::array<WarpId, kMaxWarpsPerSm> order;
    const std::size_t n = lriOrder(move, order);
    for (std::size_t i = 0; i < n; ++i) {
        const WarpId w = order[i];
        if (warps_.drained(w)) {
            warps_.setLoc(w, WarpLoc::Finished);
            traceMigrate(w, WarpLoc::Finished);
            --live_warps_;
            continue; // drained: empty buffer, nothing to subtract
        }
        // Waiting on a long-latency event: two-level demotion.
        warps_.setLoc(w, WarpLoc::Pending);
        traceMigrate(w, WarpLoc::Pending);
        pending_.push_back(w);
        for (std::size_t c = 0; c < kNumUnitClasses; ++c)
            actvAgg_[c] -= warps_.bufCount(
                w, static_cast<UnitClass>(c));
    }
}

std::size_t
Sm::lriOrder(WarpMask m, std::array<WarpId, kMaxWarpsPerSm>& out) const
{
    std::size_t n = 0;
    forEachWarp(m, [&](WarpId w) { out[n++] = w; });
    std::sort(out.begin(), out.begin() + static_cast<long>(n),
              [this](WarpId a, WarpId b) {
                  return lriStamp_[a] < lriStamp_[b];
              });
    return n;
}

void
Sm::buildView(SchedView& view) const
{
    // O(1) in the warp count: the ACTV aggregate and the ready masks
    // are maintained incrementally; the view just snapshots them.
    // ACTV counts decoded instructions in the active subset (the paper
    // increments the counter as instructions enter); the RDY masks
    // hold issuable heads only.
    const WarpMask active_mask = warps_.locMask(WarpLoc::Active);
    view.activeMask = active_mask;
    for (std::size_t c = 0; c < kNumUnitClasses; ++c) {
        view.actv[c] = actvAgg_[c];
        view.readyMask[c] = readyByClass_[c] & active_mask;
    }
    pg_.fillView(view);
}

Sm::ClassVerdict
Sm::verdict(UnitClass uc, WarpMask ready) const
{
    ClassVerdict v;
    switch (uc) {
      case UnitClass::Int:
      case UnitClass::Fp: {
        // The SP0/SP1 clusters of a type form a pool (the paper's
        // Coordinated Blackout relies on the second cluster being able
        // to serve a waiting warp). Selection rotates between the
        // clusters so load balances instead of piling onto cluster 0.
        const unsigned t = uc == UnitClass::Int ? 0 : 1;
        const ExecUnit* units = t == 0 ? int_ : fp_;
        for (unsigned k = 0; k < kClustersPerType; ++k) {
            const unsigned idx = (rr_cluster_[t] + k) % kClustersPerType;
            if (!pg_.canExecute(uc, idx))
                continue; // gated or waking: a pg event ends it
            if (units[idx].canAccept(now_)) {
                v.issue = ready;
                v.unit = idx;
                return v;
            }
            v.retry = std::min(v.retry, units[idx].portFreeCycle());
        }
        // Nothing could take the instruction: every cluster is gated,
        // waking, or port-busy. Demand-driven wakeup: signal the gating
        // controller so a gated cluster starts (or, under blackout, is
        // woken the moment its break-even time expires). This also
        // covers the port-busy case — a second ready instruction of the
        // type is the hardware's signal that one powered cluster is not
        // enough.
        const int target = pg_.pickWakeupTarget(uc);
        if (target >= 0) {
            v.wake = ready;
            v.unit = static_cast<unsigned>(target);
        }
        return v;
      }
      case UnitClass::Sfu:
        if (!pg_.canExecute(UnitClass::Sfu, 0)) {
            // SFU gating extension: wake the block on demand; a waking
            // block completes on a pg event.
            if (pg_.isGated(UnitClass::Sfu, 0))
                v.wake = ready;
            return v;
        }
        if (!sfu_.canAccept(now_)) {
            v.retry = sfu_.portFreeCycle();
            return v;
        }
        v.issue = ready;
        return v;
      case UnitClass::Ldst:
        if (!ldst_.canAccept(now_)) {
            v.retry = ldst_.portFreeCycle();
            return v;
        }
        // Stores and hits need no MSHR; a full pool refuses misses.
        if (!mem_.canAccept(MemClass::Miss))
            v.reject = ready & missHeadMask_;
        v.issue = ready & ~v.reject;
        return v;
    }
    return v;
}

void
Sm::tallyProbes(WarpMask probed,
                const std::array<ClassVerdict, kNumUnitClasses>& v)
{
    const auto ldst = static_cast<std::size_t>(UnitClass::Ldst);
    if (const std::uint32_t n = popcount(probed & v[ldst].reject))
        mem_.noteRejects(n, now_);
    // A wakeup request only raises a flag the next pg tick reads, so
    // one request per class stands for any number of probes; the
    // counter still counts every probe.
    for (UnitClass uc : {UnitClass::Int, UnitClass::Fp, UnitClass::Sfu}) {
        const ClassVerdict& cv = v[static_cast<std::size_t>(uc)];
        if (const std::uint32_t n = popcount(probed & cv.wake)) {
            pg_.requestWakeup(uc, cv.unit, now_);
            stats_.wakeupRequests += n;
        }
    }
}

void
Sm::issue(WarpId warp, UnitClass uc, unsigned unit)
{
    // Every read of the head happens before popHead() below, so no
    // reference into popped i-buffer storage survives it.
    const Instruction& instr = warps_.head(warp);
    switch (uc) {
      case UnitClass::Int:
      case UnitClass::Fp: {
        const unsigned t = uc == UnitClass::Int ? 0 : 1;
        ExecUnit* units = t == 0 ? int_ : fp_;
        units[unit].issue(now_, now_ + config_.alu.latency, warp,
                          instr.dest, false);
        rr_cluster_[t] = (unit + 1) % kClustersPerType;
        break;
      }
      case UnitClass::Sfu:
        sfu_.issue(now_, now_ + config_.sfu.latency, warp, instr.dest,
                   false);
        break;
      case UnitClass::Ldst: {
        const Cycle complete = mem_.access(now_, instr.mem, instr.isStore);
        ldst_.issue(now_, complete, warp, instr.dest,
                    instr.isLongLatency());
        break;
      }
    }

    const auto uidx = static_cast<std::size_t>(uc);
    if (trace_)
        trace_->record(now_, trace::EventKind::Issue,
                       static_cast<std::uint8_t>(uidx),
                       static_cast<std::uint8_t>(unit), 0,
                       static_cast<std::uint32_t>(warp));
    scoreboard_.markIssued(warp, instr);
    warps_.noteIssue(warp);
    --actvAgg_[uidx]; // the head leaves the active subset
    warps_.popHead(warp);
    refreshWarp(warp); // new head (or none) + new scoreboard word
    ++stats_.issuedByClass[uidx];
    ++stats_.issuedTotal;
}

metrics::EpochCounters
Sm::sampleCounters() const
{
    metrics::EpochCounters c;
    c.issued = stats_.issuedTotal;
    for (UnitClass uc : {UnitClass::Int, UnitClass::Fp}) {
        PgDomainStats d = pg_.domain(uc, 0).stats();
        for (unsigned k = 1; k < kClustersPerType; ++k)
            mergeFields(d, pg_.domain(uc, k).stats());
        if (uc == UnitClass::Int) {
            c.intBusyCycles = d.busyCycles;
            c.intGatedCycles = d.gatedCycles();
            c.intCompCycles = d.compCycles;
            c.intGatingEvents = d.gatingEvents;
            c.intWakeups = d.wakeups;
            c.intCriticalWakeups = d.criticalWakeups;
            c.intIdleDetect = pg_.idleDetectValue(uc);
        } else {
            c.fpBusyCycles = d.busyCycles;
            c.fpGatedCycles = d.gatedCycles();
            c.fpCompCycles = d.compCycles;
            c.fpGatingEvents = d.gatingEvents;
            c.fpWakeups = d.wakeups;
            c.fpCriticalWakeups = d.criticalWakeups;
            c.fpIdleDetect = pg_.idleDetectValue(uc);
        }
    }
    c.memMisses = mem_.misses();
    c.mshrRejects = mem_.mshrRejects();
    c.wakeupRequests = stats_.wakeupRequests;
    c.activeAccum = stats_.activeSizeAccum;
    return c;
}

void
Sm::traceMigrate(WarpId warp, WarpLoc to)
{
    if (trace_)
        trace_->record(now_, trace::EventKind::WarpMigrate, trace::kNoUnit,
                       trace::kNoCluster, static_cast<std::uint8_t>(to),
                       static_cast<std::uint32_t>(warp));
}

void
Sm::schedulePhase(const SchedView& view)
{
    scheduler_->beginCycle(now_, view);
    // Latched: GTO's notifyIssue moves its greedy warp mid-cycle, but
    // the cycle's probe order was fixed when it began.
    const IssuePriority prio = scheduler_->priority();

    // One verdict per class. An issue changes only its own class's
    // units (and the MSHR pool, which only LD/ST reads), and a wakeup
    // request only raises a flag, so the other classes' verdicts hold
    // for the whole cycle.
    std::array<ClassVerdict, kNumUnitClasses> v;
    for (std::size_t c = 0; c < kNumUnitClasses; ++c)
        if (view.readyMask[c] != 0)
            v[c] = verdict(static_cast<UnitClass>(c), view.readyMask[c]);

    // The SM's two schedulers each own one warp-parity class and issue
    // at most one instruction per cycle (issueWidth = 2 overall). The
    // key is shared (GATES keeps one priority state for the SM); the
    // parity restriction models the per-scheduler warp partitioning.
    //
    // Probing walks the ready warps in key order once, passing over a
    // warp of a used parity without a probe. Each step finds the next
    // warp that issues and applies, in one tally, the side effects of
    // the failed probes before it — the same effects, at the same trace
    // positions, as probing them one by one. `pending` holds the ready
    // warps the walk has not reached, except that silent warps it
    // passed may linger: a class's verdict only changes when that class
    // issues, and an issuing class has no silent warps, so a silent
    // warp stays silent all cycle and never needs removing.
    const bool split = config_.issueWidth == 2;
    constexpr WarpMask kEven = 0x5555555555555555ULL;
    WarpMask pending = view.readyAny();
    WarpMask parity_used = 0;
    unsigned issued = 0;
    issued_mask_ = 0;
    while (issued < config_.issueWidth) {
        const WarpMask open = pending & ~parity_used;
        WarpMask issuers = 0, tallied = 0;
        for (const ClassVerdict& cv : v) {
            issuers |= cv.issue;
            tallied |= cv.reject | cv.wake;
        }
        issuers &= open;
        tallied &= open;
        if (issuers == 0) {
            tallyProbes(tallied, v);
            break;
        }
        const WarpId w =
            lowestKey(prio, view.readyMask, issuers, lriStamp_.data());
        const WarpMask ahead = keyedBefore(prio, view.readyMask, tallied,
                                           w, lriStamp_.data());
        tallyProbes(ahead, v);

        const UnitClass uc = warps_.headClass(w);
        const auto uidx = static_cast<std::size_t>(uc);
        issue(w, uc, v[uidx].unit);
        scheduler_->notifyIssue(w, uc);
        ++issued;
        issued_mask_ |= warpBit(w);
        pending &= ~(ahead | warpBit(w));
        if (split)
            parity_used |= (w & 1u) != 0 ? ~kEven : kEven;
        v[uidx] = verdict(uc, view.readyMask[uidx]);
    }

    // Least-recently-issued maintenance: issued warps go to the back in
    // their old relative order, everyone else keeps theirs (a stable
    // partition) — fresh stamps for at most issueWidth warps.
    if (issued_mask_ != 0) {
        std::array<WarpId, kMaxWarpsPerSm> moved;
        const std::size_t n = lriOrder(issued_mask_, moved);
        for (std::size_t i = 0; i < n; ++i)
            lriStamp_[moved[i]] = ++lriClock_;
    }
}

// Flattened: every phase and every per-cycle callee defined in a
// header (PG domains and controller, exec units, memory system,
// scoreboard, warp set) compiles into this one function. The benchmark
// and default builds have no LTO, so a callee defined in a .cc file
// stays an out-of-line call here (DESIGN §14 "One inlined stepped
// cycle").
[[gnu::flatten]] bool
Sm::step()
{
    if (done_)
        return true;

    writebackPhase();
    promotePhase();
    fetchPhase();
    demotePhase();

    const std::size_t active = activeSetSize();
    stats_.activeSizeAccum += active;
    if (active > stats_.activeSizeMax)
        stats_.activeSizeMax = static_cast<std::uint32_t>(active);

    view_ = SchedView{};
    buildView(view_);
    schedulePhase(view_);

    // LD/ST idle-period tracking for the trace (the unit is never
    // gated, so the PG domains don't observe it). Mirrors PgDomain's
    // idle-run semantics: UnitIdle opens a run, UnitBusy closes it with
    // the run length.
    if (trace_) {
        if (ldst_.busy()) {
            if (ldst_idle_run_ > 0) {
                trace_->record(
                    now_, trace::EventKind::UnitBusy,
                    static_cast<std::uint8_t>(UnitClass::Ldst), 0, 0,
                    static_cast<std::uint32_t>(ldst_idle_run_));
                ldst_idle_run_ = 0;
            }
        } else if (++ldst_idle_run_ == 1) {
            trace_->record(now_, trace::EventKind::UnitIdle,
                           static_cast<std::uint8_t>(UnitClass::Ldst), 0);
        }
    }

    const std::array<bool, kClustersPerType> int_busy = {int_[0].busy(),
                                                         int_[1].busy()};
    const std::array<bool, kClustersPerType> fp_busy = {fp_[0].busy(),
                                                        fp_[1].busy()};
    pg_.tick(now_, int_busy, fp_busy, view_, sfu_.busy());

    if (sfu_.busy())
        ++stats_.sfuBusyCycles;
    if (ldst_.busy())
        ++stats_.ldstBusyCycles;

    // Epoch boundary: same (now+1) % epochLength arithmetic the
    // adaptive idle-detect rollover in PgController::tick uses, so the
    // time-series aligns with AdaptiveIdleDetect epoch updates.
    if (sampler_ && (now_ + 1) % sampler_->epochLength() == 0)
        sampler_->sample(now_ + 1, sampleCounters());

    ++now_;

    if (live_warps_ == 0) {
        done_ = true;
        finish();
    }
    return done_;
}

void
Sm::tryFastForward()
{
    // Quiescence test, cheapest condition first. A cycle that issued
    // nothing, saw only provably-failing issue attempts, and can
    // neither promote nor fetch leaves every phase a no-op until some
    // component event fires.
    if (issued_mask_ != 0)
        return;
    if (activeSetSize() < config_.activeSetCapacity && !waiting_.empty())
        return;

    // Component event horizon: the earliest cycle at which any
    // component's state can change on its own. Every cycle strictly
    // before it replays this cycle's phases verbatim. Pipeline and
    // memory events are the common span limiter, so compute them
    // first and bail before the costlier analysis when the next event
    // is already due.
    Cycle h = run_limit_;
    auto clamp = [&h](Cycle e) {
        if (e < h)
            h = e;
    };
    for (const auto& u : int_)
        clamp(u.nextEventCycle());
    for (const auto& u : fp_)
        clamp(u.nextEventCycle());
    clamp(sfu_.nextEventCycle());
    // An LD/ST occupancy retire only flips a busy flag that feeds the
    // ldstBusyCycles counter and the trace's LD/ST idle run (no PG
    // domain, not a pg.tick input); fastForward replays both from
    // busyUntil(), so only its completions bound the horizon.
    clamp(ldst_.nextCompletionCycle());
    clamp(mem_.nextEventCycle());
    if (h <= now_)
        return;

    // Fetch is a no-op at every step boundary (fetchPhase tops up
    // fully); checked defensively so a future phasing change degrades
    // to "no fast-forward" instead of silent divergence.
    if ((warps_.fetchable() & (warps_.locMask(WarpLoc::Active) |
                               warps_.locMask(WarpLoc::Pending))) != 0)
        return;

    // Reuse the view step() built: in a zero-issue cycle its ACTV counts
    // and ready masks are still exact (no head popped, no writeback since).
    // Only the gating flags can be stale — the boundary pg.tick ran
    // after schedulePhase — so refresh just those.
    SchedView& view = view_;
    pg_.fillView(view);

    // Ready heads do not disqualify a span by themselves: a cycle whose
    // every issue attempt provably fails with no side effects is as
    // dead as a fully idle one (ports mid-initiation-interval, clusters
    // gated with no wakeup candidate, MSHR pool full). The issue stage's
    // own verdicts decide it: any attempt that would issue — or fire a
    // wakeup request — ends the analysis, and a busy port bounds the
    // span where it frees. MSHR-refused LD/ST attempts are the one
    // replayable side effect: count them per cycle so fastForward can
    // reproduce the tally (and, traced, each cycle's extension of the
    // MshrReject run). A zero-issue cycle probes every ready warp in
    // one tally, so the count is the whole refused mask.
    std::uint64_t reject_attempts = 0;
    for (std::size_t c = 0; c < kNumUnitClasses; ++c) {
        if (view.readyMask[c] == 0)
            continue;
        const ClassVerdict v =
            verdict(static_cast<UnitClass>(c), view.readyMask[c]);
        if ((v.issue | v.wake) != 0)
            return;
        reject_attempts += popcount(v.reject);
        clamp(v.retry);
    }

    const std::array<bool, kClustersPerType> int_busy = {int_[0].busy(),
                                                         int_[1].busy()};
    const std::array<bool, kClustersPerType> fp_busy = {fp_[0].busy(),
                                                        fp_[1].busy()};
    clamp(pg_.nextEventCycle(now_, int_busy, fp_busy, view, sfu_.busy()));
    clamp(scheduler_->nextEventCycle(now_, view));
    // Never skip over an epoch-sampling cycle: the horizon is clamped
    // to the next epoch edge, which then executes as a real step and
    // samples exactly as the cycle-by-cycle path would.
    if (sampler_) {
        const Cycle epoch = sampler_->epochLength();
        clamp((now_ / epoch) * epoch + (epoch - 1));
    }

    if (h <= now_)
        return;
    fastForward(h - now_, view, reject_attempts);
}

void
Sm::fastForward(Cycle n, const SchedView& view,
                std::uint64_t reject_attempts)
{
    // Replay the span [now_, now_ + n) into every counter a real step
    // would have touched. Component order matches step(): scheduler
    // beginCycle precedes pg.tick within a cycle (only GATES in its
    // blackout flip-flop regime emits events here, in cycle order).
    stats_.activeSizeAccum += n * activeSetSize();
    // The span may cross the LD/ST pipeline's busy->idle flip (its
    // occupancy retires are absorbed, not horizon events): the replayed
    // cycles before busyUntil() are busy, the rest idle.
    const Cycle ldst_busy_until = ldst_.busyUntil();
    const Cycle busy = ldst_busy_until > now_
                           ? std::min<Cycle>(n, ldst_busy_until - now_)
                           : 0;
    if (trace_) {
        replayTraced(n, view, reject_attempts, busy);
    } else {
        scheduler_->fastForward(now_, n, view);
        mem_.noteRejects(n * reject_attempts, now_);
    }

    const std::array<bool, kClustersPerType> int_busy = {int_[0].busy(),
                                                         int_[1].busy()};
    const std::array<bool, kClustersPerType> fp_busy = {fp_[0].busy(),
                                                        fp_[1].busy()};
    pg_.fastForward(now_, n, int_busy, fp_busy, view, sfu_.busy());

    if (sfu_.busy())
        stats_.sfuBusyCycles += n;
    stats_.ldstBusyCycles += busy;

    now_ += n;
    ff_skipped_ += n;
    ++ff_spans_;
}

void
Sm::replayTraced(Cycle n, const SchedView& view,
                 std::uint64_t reject_attempts, Cycle busy)
{
    // Each replayed cycle records what its step would have, in step
    // order: the scheduler's beginCycle events, then the cycle's single
    // tally (its refused attempts are constant over the span, so it
    // grows the MshrReject run unless an event came between), then the
    // LD/ST UnitIdle that opens an idle run. Cycles without per-cycle
    // rejects replay the scheduler in bulk. No UnitBusy can fall
    // inside: a pipeline busy at the span's start was busy at the
    // boundary step, which closed any run.
    const Cycle idle_from = now_ + busy;
    const bool opens_idle = busy < n && ldst_idle_run_ == 0;
    auto replay = [&](Cycle from, Cycle len) {
        if (reject_attempts == 0) {
            scheduler_->fastForward(from, len, view);
            return;
        }
        for (Cycle c = from; c < from + len; ++c) {
            scheduler_->fastForward(c, 1, view);
            mem_.noteRejects(reject_attempts, c);
        }
    };
    if (opens_idle) {
        replay(now_, idle_from + 1 - now_);
        trace_->record(idle_from, trace::EventKind::UnitIdle,
                       static_cast<std::uint8_t>(UnitClass::Ldst), 0);
        replay(idle_from + 1, now_ + n - idle_from - 1);
    } else {
        replay(now_, n);
    }
    ldst_idle_run_ += n - busy;
}

void
Sm::runUntil(Cycle limit)
{
    run_limit_ = std::min(limit, config_.maxCycles);
    while (!done_ && now_ < run_limit_) {
        step();
        if (config_.fastForward && !done_ && now_ < run_limit_)
            tryFastForward();
    }
}

const SmStats&
Sm::run()
{
    runUntil(config_.maxCycles);
    if (!done_) {
        warn("Sm: maxCycles (", config_.maxCycles,
             ") reached before the workload drained");
        finish();
    }
    return stats_;
}

void
Sm::finish()
{
    if (finished_stats_)
        return;
    finished_stats_ = true;

    pg_.finalize(now_);
    stats_.cycles = now_;
    stats_.completed = live_warps_ == 0;

    for (unsigned t = 0; t < 2; ++t) {
        UnitClass uc = t == 0 ? UnitClass::Int : UnitClass::Fp;
        const ExecUnit* units = t == 0 ? int_ : fp_;
        for (unsigned c = 0; c < 2; ++c) {
            ClusterStats& cs = stats_.clusters[t][c];
            cs.pg = pg_.domain(uc, c).stats();
            cs.issues = units[c].issueCount();
            cs.idleHist = pg_.domain(uc, c).idleHistogram();
        }
        stats_.finalIdleDetect[t] = pg_.idleDetectValue(uc);
        if (config_.pg.adaptiveIdleDetect) {
            stats_.adaptIncrements[t] = pg_.adaptive(uc).increments();
            stats_.adaptDecrements[t] = pg_.adaptive(uc).decrements();
        }
    }

    stats_.sfuIssues = sfu_.issueCount();
    stats_.sfuCluster.pg = pg_.sfuDomain().stats();
    stats_.sfuCluster.issues = sfu_.issueCount();
    stats_.sfuCluster.idleHist = pg_.sfuDomain().idleHistogram();
    stats_.ldstIssues = ldst_.issueCount();
    stats_.prioritySwitches = scheduler_->prioritySwitches();
    stats_.memHits = mem_.hits();
    stats_.memMisses = mem_.misses();
    stats_.memStores = mem_.stores();
    stats_.mshrRejects = mem_.mshrRejects();

    // Flush the trailing partial epoch so the series covers every
    // simulated cycle (pg_.finalize above closed the idle runs first).
    if (sampler_)
        sampler_->finalize(now_, sampleCounters());
}

SmSnapshot
Sm::snapshot() const
{
    SmSnapshot s;
    s.now = now_;
    s.done = done_;
    s.finishedStats = finished_stats_;
    s.liveWarps = live_warps_;
    s.ldstIdleRun = ldst_idle_run_;
    s.rrCluster = {rr_cluster_[0], rr_cluster_[1]};
    std::array<WarpId, kMaxWarpsPerSm> lri;
    const std::size_t n_active =
        lriOrder(warps_.locMask(WarpLoc::Active), lri);
    s.active.assign(lri.begin(), lri.begin() + static_cast<long>(n_active));
    s.waiting.assign(waiting_.begin(), waiting_.end());
    s.pending.assign(pending_.begin(), pending_.end());
    s.warps.reserve(warps_.size());
    s.scoreboard.reserve(warps_.size());
    s.scoreboardLong.reserve(warps_.size());
    for (std::size_t w = 0; w < warps_.size(); ++w) {
        const WarpId id = static_cast<WarpId>(w);
        s.warps.push_back(warps_.saveWarp(id));
        s.scoreboard.push_back(scoreboard_.pendingWord(id));
        s.scoreboardLong.push_back(scoreboard_.pendingLongWord(id));
    }
    scheduler_->saveState(s.scheduler);
    for (unsigned c = 0; c < 2; ++c) {
        s.intUnits[c] = int_[c].saveState();
        s.fpUnits[c] = fp_[c].saveState();
    }
    s.sfu = sfu_.saveState();
    s.ldst = ldst_.saveState();
    s.mem = mem_.saveState();
    s.pg = pg_.saveState();
    s.stats = stats_;
    if (trace_) {
        s.hasTrace = true;
        s.traceSchema = trace::kSchemaVersion;
        s.traceEvents = trace_->events();
        s.traceOverwritten = trace_->overwritten();
    }
    if (sampler_) {
        s.hasSampler = true;
        s.sampler = sampler_->saveState();
    }
    return s;
}

bool
Sm::restore(const SmSnapshot& snap, std::string* error)
{
    auto fail = [error](const std::string& what) {
        if (error)
            *error = what;
        return false;
    };

    const std::size_t n = warps_.size();
    if (snap.warps.size() != n || snap.scoreboard.size() != n ||
        snap.scoreboardLong.size() != n)
        return fail("snapshot warp count does not match the workload");
    if (snap.rrCluster[0] >= kClustersPerType ||
        snap.rrCluster[1] >= kClustersPerType)
        return fail("snapshot rrCluster out of range");
    if (snap.scheduler.hiClass >= kNumUnitClasses)
        return fail("snapshot scheduler class out of range");
    for (unsigned t = 0; t < 2; ++t)
        for (unsigned c = 0; c < kClustersPerType; ++c)
            if (snap.pg.domains[t][c].state > 3)
                return fail("snapshot pg state out of range");
    if (snap.pg.sfuDomain.state > 3)
        return fail("snapshot pg state out of range");
    // In-flight occupancy ends and fixed-latency completions live in
    // bounded FIFOs: refuse lists no run can produce.
    const std::pair<const ExecUnit&, const ExecUnitState&> units[] = {
        {int_[0], snap.intUnits[0]}, {int_[1], snap.intUnits[1]},
        {fp_[0], snap.fpUnits[0]},   {fp_[1], snap.fpUnits[1]},
        {sfu_, snap.sfu},            {ldst_, snap.ldst}};
    for (const auto& [unit, state] : units)
        if (const char* why = unit.checkState(state))
            return fail("snapshot exec unit " + unit.name() + ": " + why);

    // Residency lists must tile the non-finished warps: every listed
    // warp's slot must claim the matching location, exactly once.
    std::size_t finished = 0;
    for (std::size_t w = 0; w < n; ++w)
        if (snap.warps[w].loc ==
            static_cast<std::uint8_t>(WarpLoc::Finished))
            ++finished;
    if (snap.liveWarps != n - finished)
        return fail("snapshot liveWarps inconsistent with warp slots");
    std::vector<bool> seen(n, false);
    auto check_list = [&](const std::vector<std::uint32_t>& list,
                          WarpLoc loc) {
        for (std::uint32_t w : list) {
            if (w >= n || seen[w] ||
                snap.warps[w].loc != static_cast<std::uint8_t>(loc))
                return false;
            seen[w] = true;
        }
        return true;
    };
    if (!check_list(snap.active, WarpLoc::Active) ||
        !check_list(snap.waiting, WarpLoc::Waiting) ||
        !check_list(snap.pending, WarpLoc::Pending))
        return fail("snapshot residency lists inconsistent");
    if (snap.active.size() + snap.waiting.size() + snap.pending.size() !=
        n - finished)
        return fail("snapshot residency lists inconsistent");
    if (snap.active.size() > config_.activeSetCapacity)
        return fail("snapshot active set exceeds capacity");

    if (snap.hasTrace != (trace_ != nullptr))
        return fail(snap.hasTrace
                        ? "snapshot carries a trace section but no "
                          "recorder is attached"
                        : "a recorder is attached but the snapshot has "
                          "no trace section");
    // Other schemas gave events other meanings (v1: one MshrReject per
    // attempt, v2: one per tally); resuming them would mix two schemas
    // in one trace.
    if (snap.hasTrace && snap.traceSchema != trace::kSchemaVersion)
        return fail("snapshot trace section has schema " +
                    std::to_string(snap.traceSchema) +
                    "; this build records and resumes schema " +
                    std::to_string(trace::kSchemaVersion));
    if (snap.hasTrace && trace_ &&
        snap.traceEvents.size() > trace_->capacity())
        return fail("snapshot trace section exceeds the ring "
                    "capacity");
    if (snap.hasSampler != (sampler_ != nullptr))
        return fail(snap.hasSampler
                        ? "snapshot carries a metrics section but no "
                          "sampler is attached"
                        : "a sampler is attached but the snapshot has "
                          "no metrics section");
    if (snap.hasSampler &&
        snap.sampler.epochLength != sampler_->epochLength())
        return fail("snapshot metrics epoch length does not match");

    if (!warps_.restore(snap.warps))
        return fail("snapshot warp slots inconsistent with programs");

    now_ = snap.now;
    done_ = snap.done;
    finished_stats_ = snap.finishedStats;
    live_warps_ = snap.liveWarps;
    ldst_idle_run_ = snap.ldstIdleRun;
    rr_cluster_ = {snap.rrCluster[0], snap.rrCluster[1]};
    waiting_.assign(snap.waiting.begin(), snap.waiting.end());
    pending_.assign(snap.pending.begin(), snap.pending.end());
    for (std::size_t w = 0; w < n; ++w)
        scoreboard_.restoreWords(static_cast<WarpId>(w),
                                 snap.scoreboard[w],
                                 snap.scoreboardLong[w]);
    scheduler_->restoreState(snap.scheduler);
    for (unsigned c = 0; c < 2; ++c) {
        int_[c].restoreState(snap.intUnits[c]);
        fp_[c].restoreState(snap.fpUnits[c]);
    }
    sfu_.restoreState(snap.sfu);
    ldst_.restoreState(snap.ldst);
    mem_.restoreState(snap.mem);
    pg_.restoreState(snap.pg);
    stats_ = snap.stats;
    if (trace_)
        trace_->restore(snap.traceEvents, snap.traceOverwritten);
    if (sampler_)
        sampler_->restoreState(snap.sampler);

    // Re-derive the incremental masks and the ACTV aggregate from the
    // restored warp/scoreboard state.
    readyByClass_ = {};
    blockedLongMask_ = 0;
    missHeadMask_ = 0;
    for (std::size_t w = 0; w < n; ++w)
        refreshWarp(static_cast<WarpId>(w));
    // Stamps only order the active set, so fresh ones along the
    // restored LRI list rank exactly as the captured run's did.
    lriClock_ = 0;
    actvAgg_ = {};
    for (WarpId w : snap.active) {
        lriStamp_[w] = ++lriClock_;
        for (std::size_t c = 0; c < kNumUnitClasses; ++c)
            actvAgg_[c] +=
                warps_.bufCount(w, static_cast<UnitClass>(c));
    }
    return true;
}

} // namespace wg
