// Structured event-trace recorder — the observability substrate.
//
// The simulator's hot paths emit typed events (fault windows, prefetch
// issues/hits, pre-execute episodes, context switches, async conversions,
// DMA completions, scheduler decisions, evictions) into a preallocated
// vector buffer.  Recording is a pointer check plus a push_back into
// reserved storage, and every call site is guarded with `if (trace_)` so a
// simulation without an attached trace pays a single predictable branch.
//
// The recorded timeline is the ground truth the InvariantChecker replays
// (obs/invariant_checker.h) and the Chrome trace_event exporter renders
// (obs/trace_json.h): §4.2.1's idle-time accounting becomes checkable per
// fault instead of only as end-of-run aggregates.
#pragma once

#include "util/types.h"

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string_view>
#include <vector>

namespace its::obs {

/// Chrome trace_event phase a kind renders as (obs/trace_json.h): paired
/// B/E slices for the fault and pre-execute windows, complete (X) slices
/// for windows recorded at their end with a duration in `b`, and
/// thread-scoped instants for the point-in-time markers.
enum class Phase : std::uint8_t { kBegin, kEnd, kComplete, kInstant };

/// Which timeline an event lives on — decides which ordering invariants
/// the checker applies to it (obs/invariant_checker.h).
enum class Timeline : std::uint8_t {
  kProcess,           ///< per-pid append order + makespan bound
  kDeviceCompletion,  ///< stamped with the (future) completion; ts >= issue
  kDeviceRetry,       ///< future detection/repost stamp; exempt from both
                      ///< (a prefetched read may still be erroring out
                      ///< after the last process finished)
};

/// The one list of event kinds, in enumerator order (the values are part
/// of the recorded format: digests and goldens depend on them).  Each row
/// is X(enumerator, name, Chrome slice name, Phase, Timeline) and its
/// trailing comment is the operand legend.  Adding a kind is adding a
/// row; a row that leaves out a column does not compile.
#define ITS_EVENT_KINDS(X)                                                                                                                                               \
  X(kFaultBegin, "fault_begin", "fault", kBegin, kProcess)                            /* Major fault entered the handler.        a=vpn b=device health at entry */       \
  X(kFaultEnd, "fault_end", "fault", kEnd, kProcess)                                  /* Fault resolved (page mapped).           a=vpn b=busy-wait window c=stolen */    \
  X(kFileWait, "file_wait", "file_wait", kComplete, kProcess)                         /* Sync wait on a page-cache page.         a=page key b=wait c=stolen */           \
  X(kPrefetchIssue, "prefetch_issue", "prefetch_issue", kInstant, kProcess)           /* Page posted to DMA by a prefetcher.     a=vpn/key b=source (PrefetchSource) */  \
  X(kPrefetchHit, "prefetch_hit", "prefetch_hit", kInstant, kProcess)                 /* Minor fault consumed a prefetched page. a=vpn */                                \
  X(kPreexecBegin, "preexec_begin", "preexec", kBegin, kProcess)                      /* Pre-execute episode started.            a=pc */                                 \
  X(kPreexecEnd, "preexec_end", "preexec", kEnd, kProcess)                            /* Episode ended.                          a=pc b=used ns c=stolen credit */       \
  X(kCtxSwitch, "ctx_switch", "ctx_switch", kComplete, kProcess)                      /* Context switch charged.                 b=cost ns */                            \
  X(kAsyncConvert, "async_convert", "async_convert", kInstant, kProcess)              /* Fault converted to asynchronous mode.   a=vpn/key */                            \
  X(kDmaComplete, "dma_complete", "dma_complete", kInstant, kDeviceCompletion)        /* DMA transfer completion (device pid).   a=bytes b=issue time c=direction */     \
  X(kSchedPick, "sched_pick", "sched_pick", kInstant, kProcess)                       /* Scheduler dispatched the process. */                                            \
  X(kSchedBlock, "sched_block", "sched_block", kInstant, kProcess)                    /* Process blocked on I/O. */                                                      \
  X(kSchedWake, "sched_wake", "sched_wake", kInstant, kProcess)                       /* Blocked process became runnable. */                                             \
  X(kEvict, "evict", "evict", kInstant, kProcess)                                     /* Frame reclaimed under pressure.         a=pfn b=vpn */                          \
  X(kSwapIn, "swap_in", "swap_in", kInstant, kProcess)                                /* Swap slot read back from the device.    a=vpn */                                \
  X(kSwapOut, "swap_out", "swap_out", kInstant, kProcess)                             /* Swap slot written to the device.        a=vpn */                                \
  X(kPrefetchWalk, "prefetch_walk", "prefetch_walk", kInstant, kProcess)              /* Prefetcher candidate walk.              a=victim b=slots examined c=walk ns */  \
  /* Fault-injection resilience (see fault/fault_injector.h).  IoError and */                                                                                            \
  /* IoRetry live on the device timeline (kDevicePid) and are stamped with */                                                                                            \
  /* the future detection/repost time, like kDmaComplete. */                                                                                                             \
  X(kIoError, "io_error", "io_error", kInstant, kDeviceRetry)                         /* Demand read attempt failed.             a=vpn/key b=attempt c=direction */      \
  X(kIoRetry, "io_retry", "io_retry", kInstant, kDeviceRetry)                         /* Failed attempt reposted after backoff.  a=vpn/key b=attempt c=backoff ns */     \
  X(kDeadlineAbort, "deadline_abort", "deadline_abort", kInstant, kProcess)           /* Watchdog aborted a sync busy-wait.      a=vpn b=waited window c=stolen */       \
  X(kModeFallback, "mode_fallback", "mode_fallback", kInstant, kProcess)              /* Aborted fault fell back to async mode.  a=vpn b=remaining (background) ns */    \
  /* Device-outage resilience (storage/device_health.h, vm/fallback_pool.h). */                                                                                          \
  /* HealthTransition lives on the device timeline (kDevicePid); the pool */                                                                                             \
  /* events carry the owning process. */                                                                                                                                 \
  X(kHealthTransition, "health_transition", "health_transition", kInstant, kProcess)  /* Health FSM edge taken.                  a=from b=to (DeviceHealth) */           \
  X(kPoolStore, "pool_store", "pool_store", kInstant, kProcess)                       /* Page compressed into the fallback pool. a=vpn b=compress ns */                  \
  X(kPoolLoad, "pool_load", "pool_load", kInstant, kProcess)                          /* Demand read served from the pool.       a=vpn b=decompress ns */                \
  X(kPoolDrain, "pool_drain", "pool_drain", kInstant, kProcess)                       /* Pooled page written back on recovery.   a=vpn b=bytes */                        \
  /* Open-loop serving lifecycle (serve/scenario.h).  Every request event */                                                                                             \
  /* carries the request id in `a`; Arrive/Admit are stamped at the arrival */                                                                                           \
  /* instant, Done at retirement with the reconciled latency (a complete */                                                                                              \
  /* slice spanning arrival to done), and a SloViolation immediately follows */                                                                                          \
  /* the Done it indicts. */                                                                                                                                             \
  X(kRequestArrive, "request_arrive", "request_arrive", kInstant, kProcess)           /* Open-loop request arrived.              a=req id b=tier */                      \
  X(kRequestAdmit, "request_admit", "request_admit", kInstant, kProcess)              /* Request admitted (process spawned).     a=req id b=tier */                      \
  X(kRequestDone, "request_done", "request_done", kComplete, kProcess)                /* Request retired.                        a=req id b=latency ns c=tier */         \
  X(kSloViolation, "slo_violation", "slo_violation", kInstant, kProcess)              /* Retired request broke its tier SLO.     a=req id b=latency ns c=slo ns */

enum class EventKind : std::uint8_t {
#define ITS_EVENT_KIND_ENUMERATOR(kind, name, slice, phase, timeline) kind,
  ITS_EVENT_KINDS(ITS_EVENT_KIND_ENUMERATOR)
#undef ITS_EVENT_KIND_ENUMERATOR
};

/// Everything the exporter and the checker need to know about one kind.
struct EventKindInfo {
  std::string_view name;   ///< Stable snake_case name (kind_name).
  std::string_view slice;  ///< Chrome slice the event renders under.
  Phase phase;
  Timeline timeline;
};

inline constexpr EventKindInfo kEventKindInfo[] = {
#define ITS_EVENT_KIND_INFO(kind, name, slice, phase, timeline) \
  {name, slice, Phase::phase, Timeline::timeline},
    ITS_EVENT_KINDS(ITS_EVENT_KIND_INFO)
#undef ITS_EVENT_KIND_INFO
};

inline constexpr std::size_t kNumEventKinds = std::size(kEventKindInfo);

/// What a byte outside the table (a corrupted or version-skewed trace)
/// reads as: an "unknown" instant on the process timeline.  The checker
/// reports such events before it looks at their timeline.
inline constexpr EventKindInfo kUnknownEventKind{"unknown", "unknown",
                                                 Phase::kInstant,
                                                 Timeline::kProcess};

/// Row of `k`; the bound is checked before the table is indexed.
constexpr const EventKindInfo& kind_info(EventKind k) {
  const auto i = static_cast<std::size_t>(k);
  return i < kNumEventKinds ? kEventKindInfo[i] : kUnknownEventKind;
}

constexpr std::string_view kind_name(EventKind k) { return kind_info(k).name; }

/// Origin of a kPrefetchIssue, carried in Event::b.
enum class PrefetchSource : std::uint8_t {
  kSwapCluster = 0,  ///< Sibling page of an aligned swap cluster.
  kPolicy = 1,       ///< VA-walk / page-on-page / stride prefetcher.
  kFileReadahead = 2,
};

/// Pid stamped on events that belong to no process (DMA completions).
inline constexpr its::Pid kDevicePid = 0xFFFFFFFFu;

struct Event {
  its::SimTime ts;      ///< Sim-time at recording; kDmaComplete stamps the
                        ///< (future) completion instead.
  EventKind kind;
  std::uint8_t policy;  ///< PolicyKind of the run, set once on the trace.
  its::Pid pid;
  std::uint64_t a = 0;  ///< Primary operand — see the per-kind legend.
  std::uint64_t b = 0;
  std::uint64_t c = 0;
};

class EventTrace {
 public:
  /// `reserve_hint` preallocates the buffer; `max_events` (0 = unbounded)
  /// caps it — once full, further events are counted in dropped() instead
  /// of recorded, and the invariant checker refuses the truncated trace.
  explicit EventTrace(std::size_t reserve_hint = std::size_t{1} << 16,
                      std::size_t max_events = 0)
      : max_(max_events) {
    buf_.reserve(reserve_hint);
  }

  /// PolicyKind of the producing run, stamped onto every event.
  void set_policy(std::uint8_t policy) { policy_ = policy; }
  std::uint8_t policy() const { return policy_; }

  void record(EventKind k, its::SimTime ts, its::Pid pid, std::uint64_t a = 0,
              std::uint64_t b = 0, std::uint64_t c = 0) {
    if (max_ != 0 && buf_.size() >= max_) {
      ++dropped_;
      return;
    }
    buf_.push_back(Event{ts, k, policy_, pid, a, b, c});
  }

  const std::vector<Event>& events() const { return buf_; }
  /// Mutable view for tests that corrupt a trace on purpose.
  std::vector<Event>& events_mut() { return buf_; }

  std::size_t size() const { return buf_.size(); }
  bool empty() const { return buf_.empty(); }
  std::uint64_t dropped() const { return dropped_; }

  std::uint64_t count(EventKind k) const;
  /// Σ of the `b` operand over events of kind `k` (durations/costs).
  std::uint64_t sum_b(EventKind k) const;
  /// Σ of the `c` operand over events of kind `k` (stolen credits).
  std::uint64_t sum_c(EventKind k) const;

  void clear() {
    buf_.clear();
    dropped_ = 0;
  }

 private:
  std::size_t max_;
  std::uint8_t policy_ = 0;
  std::uint64_t dropped_ = 0;
  std::vector<Event> buf_;
};

}  // namespace its::obs
