#include "sim/experiment.hh"

#include "common/logging.hh"

namespace cmpcache
{

bool
operator==(const ExperimentResult &a, const ExperimentResult &b)
{
    return a.workload == b.workload && a.policy == b.policy
           && a.maxOutstanding == b.maxOutstanding
           && a.execTime == b.execTime
           && a.wbhtCorrectPct == b.wbhtCorrectPct
           && a.l3LoadHitRatePct == b.l3LoadHitRatePct
           && a.l2WbRequests == b.l2WbRequests
           && a.l3Retries == b.l3Retries
           && a.offChipAccesses == b.offChipAccesses
           && a.wbSnarfedPct == b.wbSnarfedPct
           && a.snarfedUsedLocallyPct == b.snarfedUsedLocallyPct
           && a.snarfedForInterventionPct == b.snarfedForInterventionPct
           && a.l2HitRatePct == b.l2HitRatePct
           && a.cleanWbRedundantPct == b.cleanWbRedundantPct
           && a.wbReusedTotalPct == b.wbReusedTotalPct
           && a.wbReusedAcceptedPct == b.wbReusedAcceptedPct
           && a.wbAborted == b.wbAborted && a.memReads == b.memReads
           && a.interventions == b.interventions
           && a.busRetries == b.busRetries;
}

bool
operator!=(const ExperimentResult &a, const ExperimentResult &b)
{
    return !(a == b);
}

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

    r.wbhtCorrectPct = 100.0 * sys.wbhtCorrectFraction();
    r.l3LoadHitRatePct = 100.0 * sys.l3().loadHitRate();
    r.l2WbRequests = sys.totalL2WbIssued();
    r.l3Retries = sys.l3().retriesIssued();

    r.offChipAccesses = sys.offChipAccesses();
    const auto snarfed = sys.totalSnarfedReceived();
    r.wbSnarfedPct =
        r.l2WbRequests
            ? 100.0 * static_cast<double>(snarfed)
                  / static_cast<double>(r.l2WbRequests)
            : 0.0;
    r.snarfedUsedLocallyPct =
        snarfed ? 100.0 * static_cast<double>(sys.totalSnarfLocalUse())
                      / static_cast<double>(snarfed)
                : 0.0;
    r.snarfedForInterventionPct =
        snarfed
            ? 100.0
                  * static_cast<double>(sys.totalSnarfInterventionUse())
                  / static_cast<double>(snarfed)
            : 0.0;
    r.l2HitRatePct = 100.0 * sys.l2HitRate();

    const auto clean_seen = sys.l3().cleanWbSeen();
    r.cleanWbRedundantPct =
        clean_seen
            ? 100.0 * static_cast<double>(sys.l3().cleanWbAlreadyValid())
                  / static_cast<double>(clean_seen)
            : 0.0;

    if (const auto *rt = sys.reuseTracker()) {
        r.wbReusedTotalPct = rt->reusedTotalPct();
        r.wbReusedAcceptedPct = rt->reusedAcceptedPct();
    }

    for (unsigned i = 0; i < sys.numL2s(); ++i)
        r.wbAborted += sys.l2(i).wbAbortedByWbht();
    r.memReads = sys.mem().reads();
    r.interventions = sys.ring().collector().totalInterventions();
    r.busRetries = sys.ring().collector().totalRetries();
    return r;
}

} // namespace cmpcache
