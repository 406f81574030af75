#include "sim/cmp_system.hh"

#include <algorithm>
#include <sstream>

#include "common/logging.hh"

namespace cmpcache
{

void
WbReuseTracker::observe(const BusRequest &req, const CombinedResult &res)
{
    if (res.resp == CombinedResp::Retry)
        return;
    const Addr line = req.lineAddr;
    if (isWriteBack(req.cmd)) {
        ++totalWb_;
        pendingTotal_.insert(line);
        if (res.resp == CombinedResp::WbAcceptL3) {
            ++acceptedWb_;
            pendingAccepted_.insert(line);
        }
        return;
    }
    if (req.cmd == BusCmd::Read || req.cmd == BusCmd::ReadExcl) {
        if (pendingTotal_.erase(line))
            ++reusedTotal_;
        if (pendingAccepted_.erase(line))
            ++reusedAccepted_;
    }
}

double
WbReuseTracker::reusedTotalPct()
const
{
    return totalWb_ ? 100.0 * static_cast<double>(reusedTotal_)
                          / static_cast<double>(totalWb_)
                    : 0.0;
}

double
WbReuseTracker::reusedAcceptedPct() const
{
    return acceptedWb_ ? 100.0 * static_cast<double>(reusedAccepted_)
                             / static_cast<double>(acceptedWb_)
                       : 0.0;
}

namespace
{

/** Validate the whole config, then build its machine shape. */
CmpTopology
makeTopology(const SystemConfig &cfg)
{
    cfg.validate();
    auto t = CmpTopology::build(cfg.topology);
    cmp_assert(t.ok(),
               "topology passed validate() but failed to build");
    return *t;
}

} // namespace

CmpSystem::CmpSystem(const SystemConfig &cfg, TraceBundle traces)
    : stats::Group("system"), cfg_(cfg), topo_(makeTopology(cfg))
{
    cmp_assert(traces.numThreads() == topo_.numThreads(),
               "trace bundle has ", traces.numThreads(),
               " threads, system wants ", topo_.numThreads());

    // The L3 is sliced as the topology says.
    cfg_.l3.slices = topo_.numL3Slices();

    retryMonitor_ =
        std::make_unique<RetryMonitor>(this, cfg_.policy.retry);
    retryMonitor_->setTimeSource([this] { return eq_.curTick(); });

    // Only built when a plan is configured: fault-free runs carry no
    // "fault" stats group, keeping their output byte-identical.
    if (cfg_.fault.enabled()) {
        auto plan = parseFaultPlan(cfg_.fault.plan);
        cmp_assert(plan.ok(), "fault plan passed validate() but "
                   "failed to parse");
        plan->seed = cfg_.fault.seed;
        faults_ = std::make_unique<FaultInjector>(this, *plan);
        faults_->setTimeSource([this] { return eq_.curTick(); });
    }

    ring_ = std::make_unique<Ring>(this, eq_, cfg_.ring, topo_);
    ring_->setRetryMonitor(retryMonitor_.get());
    ring_->setFaultInjector(faults_.get());

    // Agent ids come from the topology; nothing here computes
    // placement arithmetic.
    const AgentId l3_id = topo_.l3Agent();
    l3_ = std::make_unique<L3Cache>(this, eq_, l3_id, cfg_.l3);
    mem_ = std::make_unique<MemCtrl>(this, eq_, topo_.memAgent(),
                                     cfg_.mem);
    l3_->setMemWriteFn([this] { mem_->writeFromL3(); });

    // Conformance oracle (check.oracle): built before the L2s so
    // every component can be wired to it as it is constructed.
    if (cfg_.check.oracle) {
        oracle_ = std::make_unique<VersionOracle>(l3_id);
        oracle_->setSnapshotFn(
            [this] { return conformanceSnapshot(); });
        ring_->setConformance(oracle_.get());
        l3_->setConformance(oracle_.get());
    }

    for (unsigned i = 0; i < topo_.numL2s(); ++i) {
        auto l2 = std::make_unique<L2Cache>(
            this, eq_, cstr("l2_", i), topo_.l2Agent(i), cfg_.l2,
            cfg_.policy, *ring_, retryMonitor_.get());
        l2->setL3Peek(
            [this](Addr a) { return l3_->hasLineValid(a); });
        l2->setCompletionCallback([this](ThreadId tid) {
            cpus_.at(tid)->onMissComplete();
        });
        l2->setFaultInjector(faults_.get());
        l2->setConformance(oracle_.get());
        ring_->attach(l2.get());
        l2s_.push_back(std::move(l2));
    }
    // Attached in id order, as Ring::attach requires.
    ring_->attach(l3_.get());
    ring_->attach(mem_.get());

    if (cfg_.enableWbReuseTracker) {
        reuseTracker_ = std::make_unique<WbReuseTracker>();
        ring_->setObserver(
            [this](const BusRequest &req, const CombinedResult &res) {
                reuseTracker_->observe(req, res);
            });
    }

    for (unsigned t = 0; t < topo_.numThreads(); ++t) {
        const unsigned cluster = topo_.l2OfThread(t);
        L2Cache &l2 = *l2s_[cluster];
        cpus_.push_back(std::make_unique<TraceCpu>(
            this, eq_, cstr("cpu_", t),
            static_cast<ThreadId>(t), cfg_.cpu, l2,
            std::move(traces.perThread[t])));
    }
}

CmpSystem::~CmpSystem() = default;

WarmImage
buildWarmImage(const SystemConfig &cfg, TraceBundle traces)
{
    const auto topo = CmpTopology::build(cfg.topology);
    cmp_assert(topo.ok(), "warm image for an invalid topology");
    cmp_assert(traces.numThreads() == topo->numThreads(),
               "warmup bundle has the wrong thread count");

    WarmImage img{{},
                  TagArray(cfg.l3.sizeBytes, cfg.l3.assoc,
                           cfg.l3.lineSize),
                  {}, {}, {}, {}, {}};
    img.l2Tags.reserve(topo->numL2s());
    for (unsigned i = 0; i < topo->numL2s(); ++i)
        img.l2Tags.emplace_back(cfg.l2.sizeBytes, cfg.l2.assoc,
                                cfg.l2.lineSize);

    const auto snarf_event = [&img](Addr line, bool write_back) {
        img.snarfLines.push_back(line);
        img.snarfWriteBack.push_back(write_back);
    };
    TagArray &l3tags = img.l3Tags;
    bool any = true;
    TraceRecord r;
    while (any) {
        any = false;
        for (unsigned t = 0; t < topo->numThreads(); ++t) {
            if (!traces.perThread[t]->next(r))
                continue;
            any = true;
            const unsigned l2 = topo->l2OfThread(t);
            TagArray &tags = img.l2Tags[l2];
            const Addr line = tags.lineAlign(r.addr);
            const bool store = r.op == MemOp::Store;

            if (TagEntry *e = tags.lookup(line)) {
                if (store)
                    e->state = LineState::Modified;
                continue;
            }
            // Adaptive tables reach steady state alongside the
            // caches: every L2 observes misses (snarf use bits) the
            // way it would on the snooped address ring.
            snarf_event(line, false);

            TagEntry *victim = tags.findVictim(line);
            if (victim->valid()) {
                // Victim migrates to the L3 (clean and dirty alike,
                // as in the baseline policy).
                const Addr va = tags.lineOf(victim);
                const bool vdirty = isDirty(victim->state);
                bool l3_had_line = false;
                if (TagEntry *l3e = l3tags.lookup(va)) {
                    l3_had_line = true;
                    if (vdirty)
                        l3e->state = LineState::Modified;
                } else {
                    TagEntry *l3v = l3tags.findVictim(va);
                    l3tags.insert(l3v, va,
                                  vdirty ? LineState::Modified
                                         : LineState::Shared);
                }
                snarf_event(va, true);
                // The combined response would have reported "valid in
                // L3".
                if (!vdirty && l3_had_line) {
                    img.wbhtLines.push_back(va);
                    img.wbhtL2s.push_back(l2);
                }
            }
            tags.insert(victim, line,
                        store ? LineState::Modified
                              : LineState::Exclusive);
            // Demand fetch hitting the L3 leaves the copy in place
            // (read) or claims it (store).
            if (TagEntry *l3e = l3tags.lookup(line)) {
                if (store)
                    l3tags.invalidate(l3e);
            }
        }
    }

    // Warmup installs per-L2 without invalidating peers, so a line
    // can end up writable in several L2s at once -- a state no
    // running machine produces. Remember those lines so the
    // structural invariant checker can skip them (the oracle taints
    // them the same way on load).
    std::vector<Addr> seeded;
    for (const TagArray &tags : img.l2Tags) {
        tags.forEach([&](Addr line, const TagEntry &e) {
            if (e.valid())
                seeded.push_back(line);
        });
    }
    std::sort(seeded.begin(), seeded.end());
    for (std::size_t i = 1; i < seeded.size(); ++i) {
        if (seeded[i] == seeded[i - 1]
            && (img.approximateLines.empty()
                || img.approximateLines.back() != seeded[i]))
            img.approximateLines.push_back(seeded[i]);
    }
    return img;
}

void
CmpSystem::functionalWarmup(TraceBundle traces)
{
    loadWarmImage(buildWarmImage(cfg_, std::move(traces)));
}

void
CmpSystem::checkWarmImage(const WarmImage &image) const
{
    cmp_assert(eq_.curTick() == 0 && totalPending() == 0,
               "warmup must precede the timed run");
    const auto same_shape = [](const TagArray &a, const TagArray &b) {
        return a.numSets() == b.numSets() && a.assoc() == b.assoc()
               && a.lineSize() == b.lineSize();
    };
    cmp_assert(image.l2Tags.size() == topo_.numL2s(),
               "warm image has ", image.l2Tags.size(), " L2s, system ",
               topo_.numL2s());
    for (unsigned i = 0; i < topo_.numL2s(); ++i)
        cmp_assert(same_shape(image.l2Tags[i], l2s_[i]->tags()),
                   "warm image L2 geometry differs");
    cmp_assert(same_shape(image.l3Tags, l3_->tags()),
               "warm image L3 geometry differs");
}

void
CmpSystem::loadWarmImage(const WarmImage &image)
{
    checkWarmImage(image);
    for (unsigned i = 0; i < topo_.numL2s(); ++i)
        l2s_[i]->tags() = image.l2Tags[i];
    l3_->tags() = image.l3Tags;
    loadWarmTables(image);
}

void
CmpSystem::loadWarmImage(WarmImage &&image)
{
    checkWarmImage(image);
    for (unsigned i = 0; i < topo_.numL2s(); ++i)
        l2s_[i]->tags() = std::move(image.l2Tags[i]);
    l3_->tags() = std::move(image.l3Tags);
    loadWarmTables(image);
}

void
CmpSystem::loadWarmTables(const WarmImage &image)
{
    // Warmup feeds every snarf table the same events, and every WBHT
    // too under global allocation, and consults none of them, so
    // those peers end identical: replay into the first table of each
    // kind and copy it to the rest.
    const bool global = cfg_.policy.globalWbhtAllocation();
    SnarfTable *snarf = l2s_[0]->snarfTable();
    if (snarf) {
        for (std::size_t i = 0; i < image.snarfLines.size(); ++i) {
            if (image.snarfWriteBack[i])
                snarf->recordWriteBack(image.snarfLines[i]);
            else
                snarf->recordMiss(image.snarfLines[i]);
        }
        for (unsigned i = 1; i < topo_.numL2s(); ++i)
            l2s_[i]->snarfTable()->copyStateFrom(*snarf);
    }
    if (cfg_.policy.usesWbht()) {
        for (std::size_t i = 0; i < image.wbhtLines.size(); ++i) {
            const unsigned l2 = global ? 0 : image.wbhtL2s[i];
            l2s_[l2]->wbht()->recordL3Valid(image.wbhtLines[i]);
        }
        if (global) {
            for (unsigned i = 1; i < topo_.numL2s(); ++i)
                l2s_[i]->wbht()->copyStateFrom(*l2s_[0]->wbht());
        }
    }

    warmupApprox_ = image.approximateLines;

    // Hand the warmed cache contents to the conformance oracle as
    // version-0 seeds. Warmup installs per-L2 without invalidating
    // peers (a known approximation), so lines it left in several L2s
    // are tainted -- exempt from validation -- at seal time.
    if (oracle_) {
        for (unsigned i = 0; i < topo_.numL2s(); ++i) {
            const AgentId id = topo_.l2Agent(i);
            l2s_[i]->tags().forEach([&](Addr line, const TagEntry &e) {
                if (e.valid())
                    oracle_->onSeedCopy(id, line, isDirty(e.state));
            });
        }
        const AgentId l3_id = topo_.l3Agent();
        l3_->tags().forEach([&](Addr line, const TagEntry &e) {
            if (e.valid())
                oracle_->onSeedCopy(l3_id, line, isDirty(e.state));
        });
        oracle_->sealSeeding();
    }
}

std::string
CmpSystem::conformanceSnapshot()
{
    std::ostringstream os;
    os << "machine state: tick=" << eq_.curTick()
       << " events=" << totalExecuted()
       << " ring_pending=" << ring_->pendingRequests();
    for (unsigned i = 0; i < topo_.numL2s(); ++i) {
        L2Cache &l2 = *l2s_[i];
        os << " l2_" << i << "{wbq=" << l2.writeBackQueue().size()
           << " mshr=" << l2.mshrFile().inUse()
           << " snarfs=" << l2.pendingSnarfCount() << "}";
    }
    unsigned done = 0;
    for (const auto &cpu : cpus_)
        done += cpu->done();
    os << " cpus_done=" << done << "/" << cpus_.size();
    return os.str();
}

Tick
CmpSystem::run()
{
    for (auto &cpu : cpus_)
        cpu->startup();
    eq_.run(cfg_.maxTicks);

    if (!finished()) {
        throw SimException(SimError(
            SimErrorKind::Budget,
            cstr("simulation hit the ", cfg_.maxTicks,
                 "-tick safety limit before the traces drained (",
                 totalPending(), " events pending); likely a "
                 "deadlock or an undersized maxTicks")));
    }

    // Violations the oracle's store/drop hooks recorded after the
    // last combine surface here; end of run is the last check point.
    if (oracle_)
        oracle_->throwIfViolated();

    Tick finish = 0;
    for (const auto &cpu : cpus_)
        finish = std::max(finish, cpu->finishTick());
    return finish;
}

bool
CmpSystem::finished() const
{
    return std::all_of(cpus_.begin(), cpus_.end(),
                       [](const auto &c) { return c->done(); });
}

std::vector<std::string>
CmpSystem::defaultProbePaths() const
{
    std::vector<std::string> paths = {
        "ring.pending_now",
        "ring.retry_responses",
        "ring.requests",
        "retry_monitor.retries_seen",
        "retry_monitor.window_retries_now",
        "retry_monitor.last_window_retries",
        "retry_monitor.windows_elapsed",
        "retry_monitor.wbht_active_now",
        "retry_monitor.gate_transitions",
        "l3.incoming_queue_busy_now",
        "l3.retries_issued",
        "mem.outstanding_reads_now",
        "mem.reads",
    };
    for (unsigned i = 0; i < numL2s(); ++i) {
        const std::string l2 = cstr("l2_", i, ".");
        paths.push_back(l2 + "wbq_depth_now");
        paths.push_back(l2 + "mshr_occupancy_now");
        paths.push_back(l2 + "wbht_gate_now");
        paths.push_back(l2 + "wb_issued");
        paths.push_back(l2 + "wb_aborted_by_wbht");
        paths.push_back(l2 + "wb_snarfed_out");
        paths.push_back(l2 + "snarfed_received");
        paths.push_back(l2 + "snarfed_dropped");
    }
    if (faults_) {
        paths.push_back("fault.windows_active_now");
        paths.push_back("fault.forced_l3_retries");
        paths.push_back("fault.nacks");
        paths.push_back("fault.delayed_launches");
        paths.push_back("fault.snarf_suppressed");
    }
    return paths;
}

std::uint64_t
CmpSystem::totalL2WbIssued() const
{
    std::uint64_t n = 0;
    for (const auto &l2 : l2s_)
        n += l2->wbIssued();
    return n;
}

std::uint64_t
CmpSystem::totalL2Accesses() const
{
    std::uint64_t n = 0;
    for (const auto &l2 : l2s_)
        n += l2->demandAccesses();
    return n;
}

std::uint64_t
CmpSystem::totalL2Hits() const
{
    std::uint64_t n = 0;
    for (const auto &l2 : l2s_)
        n += l2->demandHits();
    return n;
}

double
CmpSystem::l2HitRate() const
{
    const auto a = totalL2Accesses();
    return a ? static_cast<double>(totalL2Hits())
                   / static_cast<double>(a)
             : 0.0;
}

std::uint64_t
CmpSystem::totalSnarfedReceived() const
{
    std::uint64_t n = 0;
    for (const auto &l2 : l2s_)
        n += l2->snarfedReceived();
    return n;
}

std::uint64_t
CmpSystem::totalSnarfLocalUse() const
{
    std::uint64_t n = 0;
    for (const auto &l2 : l2s_)
        n += l2->snarfedUsedLocally();
    return n;
}

std::uint64_t
CmpSystem::totalSnarfInterventionUse() const
{
    std::uint64_t n = 0;
    for (const auto &l2 : l2s_)
        n += l2->snarfedUsedForIntervention();
    return n;
}

std::uint64_t
CmpSystem::totalWbSnarfedOut() const
{
    std::uint64_t n = 0;
    for (const auto &l2 : l2s_)
        n += l2->wbSnarfedOutCount();
    return n;
}

double
CmpSystem::wbhtCorrectFraction() const
{
    std::uint64_t correct = 0;
    std::uint64_t total = 0;
    for (const auto &l2 : l2s_) {
        if (const auto *w = l2->wbht()) {
            correct += w->correct();
            total += w->decisions();
        }
    }
    return total ? static_cast<double>(correct)
                       / static_cast<double>(total)
                 : 0.0;
}

std::uint64_t
CmpSystem::offChipAccesses() const
{
    // The L3 data arrays and memory are both off chip.
    return l3_->supplies() + mem_->reads();
}

} // namespace cmpcache
