#include "sim/experiment.hh"

#include "common/logging.hh"

namespace cmpcache
{

namespace
{

// Two spellings of a percentage, kept apart because they round
// differently: each result field keeps the one it has always used.

/** 100 * @p part / @p whole, or 0 when @p whole is 0. */
double
percent(std::uint64_t part, std::uint64_t whole)
{
    return whole ? 100.0 * static_cast<double>(part)
                       / static_cast<double>(whole)
                 : 0.0;
}

/** @p part / @p whole, or 0 when @p whole is 0. */
double
fraction(std::uint64_t part, std::uint64_t whole)
{
    return whole ? static_cast<double>(part) / static_cast<double>(whole)
                 : 0.0;
}

} // namespace

double
improvementPct(const ExperimentResult &base, const ExperimentResult &other)
{
    cmp_assert(base.execTime > 0, "baseline has zero runtime");
    return 100.0
           * (static_cast<double>(base.execTime)
              - static_cast<double>(other.execTime))
           / static_cast<double>(base.execTime);
}

ExperimentResult
collectResult(CmpSystem &sys, Tick exec_time,
              const std::string &workload_name)
{
    ExperimentResult r;
    r.workload = workload_name;
    r.policy = toString(sys.config().policy.policy);
    r.maxOutstanding = sys.config().cpu.maxOutstanding;
    r.execTime = exec_time;

    std::uint64_t accesses = 0;
    std::uint64_t hits = 0;
    std::uint64_t snarfed = 0;
    std::uint64_t snarfed_local = 0;
    std::uint64_t snarfed_intervention = 0;
    std::uint64_t wbht_correct = 0;
    std::uint64_t wbht_decisions = 0;
    for (unsigned i = 0; i < sys.numL2s(); ++i) {
        const L2Cache &l2 = sys.l2(i);
        accesses += l2.demandAccesses();
        hits += l2.demandHits();
        r.l2WbRequests += l2.wbIssued();
        r.wbAborted += l2.wbAbortedByWbht();
        snarfed += l2.snarfedReceived();
        snarfed_local += l2.snarfedUsedLocally();
        snarfed_intervention += l2.snarfedUsedForIntervention();
        if (const WriteBackHistoryTable *w = l2.wbht()) {
            wbht_correct += w->correct();
            wbht_decisions += w->decisions();
        }
    }
    const L3Cache &l3 = sys.l3();

    r.wbhtCorrectPct = 100.0 * fraction(wbht_correct, wbht_decisions);
    r.l3LoadHitRatePct =
        100.0
        * fraction(l3.loadsServed(), l3.loadsServed() + l3.loadsToMemory());
    r.l3Retries = l3.retriesIssued();

    // The L3 data arrays and memory are both off chip.
    r.memReads = sys.mem().reads();
    r.offChipAccesses = l3.supplies() + r.memReads;
    r.wbSnarfedPct = percent(snarfed, r.l2WbRequests);
    r.snarfedUsedLocallyPct = percent(snarfed_local, snarfed);
    r.snarfedForInterventionPct = percent(snarfed_intervention, snarfed);
    r.l2HitRatePct = 100.0 * fraction(hits, accesses);

    r.cleanWbRedundantPct =
        percent(l3.cleanWbAlreadyValid(), l3.cleanWbSeen());

    if (const WbReuseTracker *rt = sys.reuseTracker()) {
        r.wbReusedTotalPct = percent(rt->reusedTotal(), rt->totalWb());
        r.wbReusedAcceptedPct =
            percent(rt->reusedAccepted(), rt->acceptedWb());
    }

    r.interventions = sys.ring().collector().totalInterventions();
    r.busRetries = sys.ring().collector().totalRetries();
    return r;
}

} // namespace cmpcache
