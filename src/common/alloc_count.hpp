// Heap-allocation counting hook behind SPECMATCH_COUNT_ALLOCS.
//
// When the knob is set (and only then), the replaced global operator new
// bumps a process-wide atomic counter on every heap allocation; the matching
// engine samples it around steady-state rounds to *prove* the MatchWorkspace
// zero-allocation guarantee (workspace_test, bench/large_market). With the
// knob unset the hook is a single relaxed load per allocation; the counter
// stays at zero and every `steady_allocs` result field reports -1
// (= not measured).
//
// The process-wide counter also sees every other thread's allocations, so
// a solve that samples it while another thread parses a request or runs a
// second solve would be charged for them. A `Scope` narrows the attribution
// to one unit of work: it counts the allocations of the thread that opened
// it, plus those of ThreadPool helpers while they run that thread's
// parallel_for lanes (the pool hands the caller's scope to its helpers).
//
// The operator new/delete replacements live in alloc_count.cpp inside
// libspecmatch_common; like any strong definition in a static library they
// are linked into a binary only when something in that binary references a
// symbol from the TU (alloc_count::total() does), which every engine entry
// point does via the steady-state accounting.
#pragma once

#include <atomic>
#include <cstdint>

namespace specmatch::alloc_count {

/// True when SPECMATCH_COUNT_ALLOCS was set at process start (or overridden
/// via set_counting); only then does total() advance.
bool counting();

/// Test override for the knob (workspace_test flips it on regardless of the
/// environment). Takes effect for allocations made after the call.
void set_counting(bool on);

/// Number of heap allocations (operator new / new[] calls) observed since
/// process start while counting() was true. Monotone; diff two samples to
/// attribute a region.
std::int64_t total();

/// Per-thread allocation attribution. Opening a Scope makes it the calling
/// thread's current scope until it is destroyed (scopes nest; an allocation
/// counts toward the current scope and every enclosing one). Counts only
/// while counting() is true.
class Scope {
 public:
  Scope();
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  /// Allocations attributed to this scope so far. Monotone.
  std::int64_t total() const { return count_.load(std::memory_order_relaxed); }

 private:
  friend void note_scoped_alloc();
  std::atomic<std::int64_t> count_{0};
  Scope* const parent_;
};

/// The calling thread's current scope (nullptr if none).
Scope* current_scope();

/// Makes `scope` the calling thread's current scope and returns the previous
/// one. ThreadPool helpers use it to work under the dispatching thread's
/// scope and restore their own afterwards.
Scope* exchange_scope(Scope* scope);

}  // namespace specmatch::alloc_count
