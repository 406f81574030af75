#include "common/logging.hh"

#include <atomic>
#include <cstdlib>
#include <iostream>
#include <mutex>

namespace cmpcache
{
namespace logging_detail
{

namespace
{
// Sweep workers emit warn()/inform() concurrently: the sink pointer
// is atomic and each message is written under a lock so lines never
// interleave mid-message.
std::atomic<std::ostream *> logSink{nullptr};

std::mutex &
sinkMutex()
{
    static std::mutex m;
    return m;
}

std::ostream &
sink()
{
    auto *s = logSink.load(std::memory_order_acquire);
    return s ? *s : std::cerr;
}
} // namespace

void
setLogSink(std::ostream *s)
{
    logSink.store(s, std::memory_order_release);
}

void
panicImpl(const char *file, int line, const std::string &msg)
{
    std::cerr << "panic: " << msg << "\n  @ " << file << ":" << line
              << std::endl;
    std::abort();
}

void
warnImpl(const std::string &msg)
{
    std::lock_guard<std::mutex> lock(sinkMutex());
    sink() << "warn: " << msg << std::endl;
}

void
informImpl(const std::string &msg)
{
    std::lock_guard<std::mutex> lock(sinkMutex());
    sink() << "info: " << msg << std::endl;
}

} // namespace logging_detail
} // namespace cmpcache
