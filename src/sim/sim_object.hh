/**
 * @file
 * Base class for all simulated components.
 */

#ifndef CMPCACHE_SIM_SIM_OBJECT_HH
#define CMPCACHE_SIM_SIM_OBJECT_HH

#include <string>

#include "sim/event_queue.hh"
#include "stats/stats.hh"

namespace cmpcache
{

/**
 * A named simulated component with its own stats group, bound to the
 * system's event queue.
 */
class SimObject : public stats::Group
{
  public:
    SimObject(stats::Group *parent, std::string name, EventQueue &eq);
    ~SimObject() override = default;

    EventQueue &eventq() { return eq_; }
    Tick curTick() const { return eq_.curTick(); }

    /** Called once after the whole system is wired, before run. */
    virtual void startup() {}

  private:
    EventQueue &eq_;
};

} // namespace cmpcache

#endif // CMPCACHE_SIM_SIM_OBJECT_HH
