#include "sched/process.h"

#include "trace/trace.h"
#include "util/types.h"

#include <stdexcept>

namespace its::sched {

namespace {
/// The trace's pages, checked before the first dereference: the memory
/// descriptor is built from them in the member initialisers.
std::vector<its::Vpn> footprint_of(const trace::Trace* t) {
  if (t == nullptr || t->empty())
    throw std::invalid_argument("Process: trace must be non-empty");
  return t->touched_pages();
}
}  // namespace

Process::Process(its::Pid pid, std::string name, int priority,
                 std::shared_ptr<const trace::Trace> trace)
    : pid_(pid),
      name_(std::move(name)),
      priority_(priority),
      trace_(std::move(trace)),
      mm_(pid, footprint_of(trace_.get())) {}

}  // namespace its::sched
