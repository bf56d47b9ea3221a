// Global operator new/delete replacements backing alloc_count.hpp.
//
// The counter is a constinit atomic so the hooks are safe during static
// initialisation; the SPECMATCH_COUNT_ALLOCS knob is latched by an ordinary
// static initialiser, so a handful of pre-main allocations may go uncounted —
// harmless, because callers only ever diff two samples taken at run time.
#include "common/alloc_count.hpp"

#include <atomic>
#include <cstdlib>
#include <new>

#include "common/config.hpp"

namespace specmatch::alloc_count {

void note_scoped_alloc();  // Scope's friend: bumps the current scope chain

namespace {

constinit std::atomic<std::int64_t> g_total{0};
constinit std::atomic<bool> g_counting{false};
constinit thread_local Scope* t_scope = nullptr;

const bool g_env_latch = [] {
  g_counting.store(env_flag("SPECMATCH_COUNT_ALLOCS"),
                   std::memory_order_relaxed);
  return true;
}();

inline void note_alloc() {
  if (!g_counting.load(std::memory_order_relaxed)) return;
  g_total.fetch_add(1, std::memory_order_relaxed);
  if (t_scope != nullptr) note_scoped_alloc();
}

void* checked_malloc(std::size_t size) {
  note_alloc();
  if (size == 0) size = 1;
  if (void* ptr = std::malloc(size)) return ptr;
  throw std::bad_alloc{};
}

void* checked_aligned(std::size_t size, std::size_t align) {
  note_alloc();
  if (size == 0) size = align;
  if (void* ptr = std::aligned_alloc(align, (size + align - 1) / align * align))
    return ptr;
  throw std::bad_alloc{};
}

}  // namespace

bool counting() { return g_counting.load(std::memory_order_relaxed); }

void set_counting(bool on) {
  (void)g_env_latch;  // anchor the env latch so it is linked alongside
  g_counting.store(on, std::memory_order_relaxed);
}

std::int64_t total() { return g_total.load(std::memory_order_relaxed); }

void note_scoped_alloc() {
  for (Scope* scope = t_scope; scope != nullptr; scope = scope->parent_)
    scope->count_.fetch_add(1, std::memory_order_relaxed);
}

Scope::Scope() : parent_(t_scope) { t_scope = this; }

Scope::~Scope() { t_scope = parent_; }

Scope* current_scope() { return t_scope; }

Scope* exchange_scope(Scope* scope) {
  Scope* previous = t_scope;
  t_scope = scope;
  return previous;
}

}  // namespace specmatch::alloc_count

// Replaceable global allocation functions ([new.delete]); the nothrow and
// aligned forms forward here or to the same malloc/free core so every heap
// allocation in the process is observed.
void* operator new(std::size_t size) {
  return specmatch::alloc_count::checked_malloc(size);
}

void* operator new[](std::size_t size) {
  return specmatch::alloc_count::checked_malloc(size);
}

void* operator new(std::size_t size, std::align_val_t align) {
  return specmatch::alloc_count::checked_aligned(
      size, static_cast<std::size_t>(align));
}

void* operator new[](std::size_t size, std::align_val_t align) {
  return specmatch::alloc_count::checked_aligned(
      size, static_cast<std::size_t>(align));
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  specmatch::alloc_count::note_alloc();
  return std::malloc(size == 0 ? 1 : size);
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  specmatch::alloc_count::note_alloc();
  return std::malloc(size == 0 ? 1 : size);
}

void operator delete(void* ptr) noexcept { std::free(ptr); }
void operator delete[](void* ptr) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::align_val_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::align_val_t) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t, std::align_val_t) noexcept {
  std::free(ptr);
}
void operator delete[](void* ptr, std::size_t, std::align_val_t) noexcept {
  std::free(ptr);
}
void operator delete(void* ptr, const std::nothrow_t&) noexcept {
  std::free(ptr);
}
void operator delete[](void* ptr, const std::nothrow_t&) noexcept {
  std::free(ptr);
}
