#include "farm/farm.h"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <thread>
#include <vector>

namespace its::farm {

unsigned default_jobs() {
  if (const char* env = std::getenv("ITS_JOBS")) {
    // from_chars on an unsigned rejects a sign, whitespace and overflow.
    const char* end = env + std::strlen(env);
    unsigned v = 0;
    auto [stop, ec] = std::from_chars(env, end, v);
    if (ec == std::errc() && stop == end && v > 0) return v;
  }
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

void run_indexed(unsigned jobs, std::size_t n,
                 const std::function<void(std::size_t)>& task) {
  if (jobs == 0) jobs = default_jobs();
  const std::size_t width = std::min<std::size_t>(jobs, n);
  std::vector<std::exception_ptr> errors(n);
  // Relaxed is enough: the counter only hands out distinct indices, and
  // the joins below order every task's writes before this call returns.
  std::atomic<std::size_t> next{0};
  auto work = [&] {
    for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed); i < n;
         i = next.fetch_add(1, std::memory_order_relaxed)) {
      try {
        task(i);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
  };
  {
    std::vector<std::jthread> helpers;
    for (std::size_t w = 1; w < width; ++w) helpers.emplace_back(work);
    work();
  }  // the jthreads join here
  for (const std::exception_ptr& e : errors)
    if (e) std::rethrow_exception(e);
}

}  // namespace its::farm
