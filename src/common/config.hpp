// Engine-wide runtime configuration.
//
// One process-wide knob object so every subsystem (thread pool, parallel
// Stage-I/II selection, trial runner, benches) agrees on how much hardware
// to use without threading a parameter through every call site.
//
// This header also hosts the canonical registry of every SPECMATCH_* knob
// (environment variables plus the SPECMATCH_SANITIZE CMake option) —
// known_env_knobs() below. tools/docs_check.sh verifies that every knob
// mentioned in the documentation appears here, so the registry cannot drift
// from the docs, and that every registered knob is read somewhere.
//
// Every SPECMATCH_* flag or count is read through env_flag / env_count
// below, so all knobs parse alike.
#pragma once

#include <span>

namespace specmatch {

/// One SPECMATCH_* configuration knob: its name and where it is read.
struct EnvKnob {
  const char* name;
  const char* description;
};

/// Every recognised SPECMATCH_* knob. Add new knobs here (with the module
/// that reads them) and delete removed ones, so docs_check keeps docs and
/// code in sync.
std::span<const EnvKnob> known_env_knobs();

/// True when environment variable `name` is set to anything but "" or "0".
/// Allocation-free: alloc_count latches its knob during static
/// initialisation through it.
bool env_flag(const char* name);

/// Environment variable `name` as a decimal count: `fallback` when it is
/// unset, empty, anything but decimal digits, above INT_MAX, or below `min`.
/// Allocation-free.
int env_count(const char* name, int min, int fallback);

struct SpecmatchConfig {
  /// Worker threads used by the parallel engine. 1 selects the exact serial
  /// code path everywhere (no pool workers are spawned). Initialised from
  /// the SPECMATCH_THREADS environment variable; when unset or invalid it
  /// defaults to the hardware concurrency (at least 1).
  int num_threads = 1;

  /// The mutable process-wide configuration. Changing num_threads takes
  /// effect on the next ThreadPool::global() access. Mutation is not
  /// synchronised against concurrent engine use — set it between runs, as
  /// the determinism tests do.
  static SpecmatchConfig& global();
};

}  // namespace specmatch
