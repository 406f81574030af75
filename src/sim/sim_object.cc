#include "sim/sim_object.hh"

namespace cmpcache
{

SimObject::SimObject(stats::Group *parent, std::string name,
                     EventQueue &eq)
    : stats::Group(parent, std::move(name)), eq_(eq)
{
}

} // namespace cmpcache
