#include "serve/program_cache.hpp"

#include <utility>

#include "core/phases.hpp"

namespace valpipe::serve {

namespace {

/// Builds the cache entry through the named compile phases.  Lowering is
/// forced on (the machine engines need resolved FIFO sugar); everything else
/// is the tenant's own CompileOptions.
std::shared_ptr<const CachedProgram> build(const std::string& source,
                                           const core::CompileOptions& opts) {
  const val::Module mod = core::frontend(source);
  core::CompiledProgram prog = core::phases::buildGraph(mod, opts);
  core::phases::normalize(prog, opts);
  core::phases::balance(prog, opts);
  core::phases::lower(prog, opts);
  return std::make_shared<const CachedProgram>(source, opts, std::move(prog));
}

}  // namespace

void ProgramCache::setCapacity(std::size_t capacity) {
  std::lock_guard<std::mutex> lk(mu_);
  capacity_ = capacity;
  evictOverflowLocked();
}

void ProgramCache::evictOverflowLocked() {
  if (capacity_ == 0) return;
  while (entries_.size() > capacity_) {
    // Least-recently-used READY entry; in-flight compiles are exempt (their
    // waiters hold the future, and they are by definition the newest use).
    auto victim = entries_.end();
    for (auto it = entries_.begin(); it != entries_.end(); ++it)
      if (it->second.ready &&
          (victim == entries_.end() ||
           it->second.lastUse < victim->second.lastUse))
        victim = it;
    if (victim == entries_.end()) return;  // everything in flight: over-full
    entries_.erase(victim);
    ++stats_.evictions;
  }
}

std::shared_ptr<const CachedProgram> ProgramCache::get(
    const std::string& source, const core::CompileOptions& opts, bool* hit) {
  // Normalize before keying so options differing only in the forced fields
  // share an entry.
  core::CompileOptions norm = opts;
  norm.lower = true;

  std::string key = std::to_string(fnv1a(source)) + "|" + core::optionsKey(norm);
  std::promise<std::shared_ptr<const CachedProgram>> p;
  Future fut;
  bool creator = false;
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (;;) {
      auto it = entries_.find(key);
      if (it == entries_.end()) break;
      if (it->second.source == source) {
        ++stats_.hits;
        it->second.lastUse = ++clock_;
        fut = it->second.future;
        break;
      }
      // 64-bit FNV collision between distinct sources: probe a longer key
      // rather than ever serving the wrong program.
      key += "#";
    }
    if (!fut.valid()) {
      ++stats_.misses;
      ++stats_.compiles;
      creator = true;
      fut = p.get_future().share();
      Entry e{fut, source, ++clock_, /*ready=*/false};
      entries_.emplace(key, std::move(e));
      evictOverflowLocked();
    }
  }
  if (hit) *hit = !creator;

  if (!creator) return fut.get();  // rethrows the creator's CompileError

  // Compile outside the lock: concurrent waiters of this key block on the
  // shared_future, other keys proceed independently.
  try {
    p.set_value(build(source, norm));
    std::lock_guard<std::mutex> lk(mu_);
    // In-flight entries are exempt from eviction, so the key is still ours.
    auto it = entries_.find(key);
    if (it != entries_.end() && it->second.source == source)
      it->second.ready = true;
  } catch (...) {
    p.set_exception(std::current_exception());
    std::lock_guard<std::mutex> lk(mu_);
    entries_.erase(key);  // deterministic error: re-raise per request
  }
  return fut.get();
}

CacheStats ProgramCache::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stats_;
}

std::size_t ProgramCache::size() const {
  std::lock_guard<std::mutex> lk(mu_);
  return entries_.size();
}

std::size_t ProgramCache::capacity() const {
  std::lock_guard<std::mutex> lk(mu_);
  return capacity_;
}

}  // namespace valpipe::serve
