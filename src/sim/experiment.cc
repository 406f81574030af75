#include "sim/experiment.hh"

#include "common/logging.hh"

namespace cmpcache
{

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
