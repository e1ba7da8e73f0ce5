#include "obs/profile/profile.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iomanip>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "obs/metrics.hpp"  // monotonic_ns
#include "obs/profile/profiled_mutex.hpp"

// Sanitizer allocator interface (matches <sanitizer/allocator_interface.h>).
// Declared weak so the reference resolves to nullptr in plain builds and to
// the libasan/libtsan export when a sanitizer runtime is linked.
extern "C" __attribute__((weak)) int __sanitizer_install_malloc_and_free_hooks(
    void (*malloc_hook)(const volatile void*, std::size_t),
    void (*free_hook)(const volatile void*));

namespace intellog::obs {

namespace prof_detail {

// constinit: the alloc hook may run during static initialization of other
// translation units, before any profiler exists.
constinit std::atomic<bool> g_alloc_enabled{false};
constinit std::atomic<std::uint64_t> g_generation{0};
thread_local FrameNode* t_frame = nullptr;
thread_local std::uint64_t t_gen = 0;

namespace {

constinit std::atomic<Profiler*> g_profiler{nullptr};

// Thread registry: weak_ptrs so the sampler never touches a slot whose
// owning thread has exited. Leaked on purpose (threads may deregister
// during static destruction).
struct ThreadRegistry {
  std::mutex mu;
  std::vector<std::weak_ptr<ThreadState>> slots;
};

ThreadRegistry& thread_registry() {
  static ThreadRegistry* reg = new ThreadRegistry();
  return *reg;
}

struct ThreadReg {
  std::shared_ptr<ThreadState> state = std::make_shared<ThreadState>();
  ThreadReg() {
    ThreadRegistry& reg = thread_registry();
    std::lock_guard lock(reg.mu);
    reg.slots.push_back(state);
  }
  ~ThreadReg() {
    state->current.store(nullptr, std::memory_order_release);
    ThreadRegistry& reg = thread_registry();
    std::lock_guard lock(reg.mu);
    std::erase_if(reg.slots, [this](const std::weak_ptr<ThreadState>& w) {
      return w.expired() || w.lock() == state;
    });
  }
};

}  // namespace

ThreadState* thread_state() {
  thread_local ThreadReg reg;
  return reg.state.get();
}

// Per-thread pending allocation counts for the innermost frame. The alloc
// hook only bumps these two plain thread-locals (no atomics, no shared
// cache lines — the hook runs on every operator new, and two relaxed RMWs
// per allocation were the dominant profiling overhead on the detect path);
// they are flushed into t_frame's atomic counters on every frame
// transition, which is the only point where the attribution target
// changes. Counts pending when a session stops before the frame closes
// are dropped by flush_pending's liveness check.
thread_local std::uint64_t t_pending_bytes = 0;
thread_local std::uint64_t t_pending_allocs = 0;

void flush_pending() noexcept {
  if (t_pending_allocs == 0) return;
  // Publish only into the live session's tree: g_profiler stays non-null
  // for as long as its tree is guaranteed allocated, and the generation
  // check rejects counts that belong to an earlier session.
  if (t_frame != nullptr &&
      g_profiler.load(std::memory_order_acquire) != nullptr &&
      t_gen == g_generation.load(std::memory_order_relaxed)) {
    t_frame->alloc_bytes.fetch_add(t_pending_bytes, std::memory_order_relaxed);
    t_frame->allocs.fetch_add(t_pending_allocs, std::memory_order_relaxed);
  }
  t_pending_bytes = 0;
  t_pending_allocs = 0;
}

void note_alloc_slow(std::size_t size) noexcept {
  // t_gen == current generation implies t_frame is a node of the live
  // profiler's tree (or nullptr); both are written together by this thread.
  if (t_gen == g_generation.load(std::memory_order_relaxed) && t_frame != nullptr) {
    t_pending_bytes += size;
    ++t_pending_allocs;
    return;
  }
  if (Profiler* p = g_profiler.load(std::memory_order_acquire)) {
    p->note_unattributed(size);
  }
}

// Weak fallback: overridden by the strong definition in alloc_hook.cpp
// when that TU's operator new replacement is linked (plain builds). A weak
// definition never causes the archive member to be extracted, so under
// sanitizer builds — where the runtime's interceptors satisfy operator new
// first — this stays false.
__attribute__((weak)) bool operator_new_replaced() noexcept { return false; }

}  // namespace prof_detail

namespace {

// Sanitizer builds: attribute allocations via the sanitizer's own malloc
// hooks, since its runtime owns operator new there (see alloc_hook.cpp).
// Installed once at static init; the hook body is the same one-load-and-
// branch note_alloc the replacement calls, so cost while idle is identical.
void sanitizer_malloc_hook(const volatile void*, std::size_t size) {
  prof_detail::note_alloc(size);
}
void sanitizer_free_hook(const volatile void*) {}

struct SanitizerHookInstaller {
  SanitizerHookInstaller() {
    if (__sanitizer_install_malloc_and_free_hooks != nullptr &&
        !prof_detail::operator_new_replaced()) {
      __sanitizer_install_malloc_and_free_hooks(&sanitizer_malloc_hook,
                                                &sanitizer_free_hook);
    }
  }
};
const SanitizerHookInstaller g_sanitizer_hook_installer;

using prof_detail::g_profiler;

std::uint64_t next_generation() {
  static std::atomic<std::uint64_t> gen{0};
  return gen.fetch_add(1, std::memory_order_relaxed) + 1;
}

/// Walks the tree depth-first, calling fn(node, path) for every non-root
/// node. `path` is the ';'-joined frame names, root-first.
template <typename Fn>
void walk_tree(const FrameNode* node, std::string& path, Fn&& fn) {
  for (const FrameNode* c = node->first_child.load(std::memory_order_acquire);
       c != nullptr; c = c->next_sibling) {
    const std::size_t len = path.size();
    if (!path.empty()) path += ';';
    path += c->name;
    fn(*c, path);
    walk_tree(c, path, fn);
    path.resize(len);
  }
}

/// Aggregates one counter over the tree, keyed by path text. Frames are
/// keyed by literal address, so the same literal text at distinct addresses
/// (one copy per TU) yields sibling nodes sharing a name; exports merge them
/// by path.
template <typename Get>
std::map<std::string, std::uint64_t> collect_by_path(const FrameNode* root,
                                                     Get&& get) {
  std::map<std::string, std::uint64_t> out;
  std::string path;
  walk_tree(root, path, [&](const FrameNode& n, const std::string& p) {
    const std::uint64_t v = get(n);
    if (v > 0) out[p] += v;
  });
  return out;
}

std::string render_collapsed(const std::map<std::string, std::uint64_t>& weights) {
  std::string out;
  for (const auto& [path, weight] : weights) {
    out += path;
    out += ' ';
    out += std::to_string(weight);
    out += '\n';
  }
  return out;
}

}  // namespace

ProfilerOptions ProfilerOptions::from_env() {
  ProfilerOptions opts;
  if (const char* env = std::getenv("INTELLOG_PROF_PERIOD_US")) {
    char* end = nullptr;
    const unsigned long long v = std::strtoull(env, &end, 10);
    if (end != env && v > 0) opts.sample_period_us = v;
  }
  return opts;
}

Profiler::Profiler(ProfilerOptions opts)
    : opts_(opts), generation_(next_generation()) {
  root_.name = "(root)";
  Profiler* expected = nullptr;
  if (!g_profiler.compare_exchange_strong(expected, this,
                                          std::memory_order_acq_rel)) {
    throw std::runtime_error("Profiler: a profiling session is already active");
  }
  start_ns_ = monotonic_ns();
  prof_detail::g_generation.store(generation_, std::memory_order_relaxed);
  if (opts_.track_allocs) {
    prof_detail::g_alloc_enabled.store(true, std::memory_order_relaxed);
  }
  sampler_ = std::thread([this] { sampler_loop(); });
}

Profiler::~Profiler() {
  stop();
  delete_children(&root_);
}

void Profiler::stop() {
  if (stopped_) return;
  stopped_ = true;
  // The stopping thread may still be inside an annotated frame (stop()
  // mid-scope); bank its pending allocation counts while the session still
  // counts as live. Other threads must have quiesced already (see the
  // header's invariants), so their frames have closed and flushed.
  prof_detail::flush_pending();
  // Disarm the alloc hook and the frame-enter fast path before touching
  // anything else; new PROF_FRAMEs become no-ops from here on.
  prof_detail::g_alloc_enabled.store(false, std::memory_order_relaxed);
  g_profiler.store(nullptr, std::memory_order_release);
  {
    std::lock_guard lock(sampler_mu_);
    stop_requested_ = true;
  }
  sampler_cv_.notify_all();
  if (sampler_.joinable()) sampler_.join();
  stop_ns_ = monotonic_ns();
  // Defensively clear every sampler slot: any remaining pointer targets
  // this session's tree, which is about to become unreadable.
  auto& reg = prof_detail::thread_registry();
  std::lock_guard lock(reg.mu);
  for (auto& w : reg.slots) {
    if (auto s = w.lock()) s->current.store(nullptr, std::memory_order_release);
  }
}

void Profiler::sampler_loop() {
  const auto period = std::chrono::microseconds(opts_.sample_period_us);
  auto next = std::chrono::steady_clock::now() + period;
  std::unique_lock lock(sampler_mu_);
  while (!stop_requested_) {
    if (sampler_cv_.wait_until(lock, next, [this] { return stop_requested_; })) {
      break;
    }
    const auto now = std::chrono::steady_clock::now();
    next = std::max(next + period, now);  // skip missed ticks, don't spin
    ticks_.fetch_add(1, std::memory_order_relaxed);
    auto& reg = prof_detail::thread_registry();
    std::lock_guard slots_lock(reg.mu);
    for (auto& w : reg.slots) {
      auto s = w.lock();
      if (!s) continue;
      if (FrameNode* n = s->current.load(std::memory_order_acquire)) {
        n->samples.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
}

void Profiler::delete_children(FrameNode* node) {
  FrameNode* c = node->first_child.load(std::memory_order_acquire);
  while (c != nullptr) {
    FrameNode* next = c->next_sibling;
    delete_children(c);
    delete c;
    c = next;
  }
  node->first_child.store(nullptr, std::memory_order_relaxed);
}

FrameNode* Profiler::descend(FrameNode* parent, const char* name) {
  // The list only grows at its head and nodes are never unlinked mid-session,
  // so after a failed CAS only the siblings between the new head and the head
  // last scanned (`scanned`) can hold `name`.
  FrameNode* const first = parent->first_child.load(std::memory_order_acquire);
  for (FrameNode* c = first; c != nullptr; c = c->next_sibling) {
    if (c->name == name) return c;
  }
  auto* node = new FrameNode();
  node->name = name;
  node->parent = parent;
  FrameNode* scanned = first;
  FrameNode* head = first;
  for (;;) {
    node->next_sibling = head;
    if (parent->first_child.compare_exchange_weak(
            head, node, std::memory_order_release, std::memory_order_acquire)) {
      return node;
    }
    // CAS failure reloaded `head`; rescan only what was published since.
    for (FrameNode* c = head; c != scanned; c = c->next_sibling) {
      if (c->name == name) {
        delete node;  // never published: no other thread can see it
        return c;
      }
    }
    scanned = head;
  }
}

double Profiler::duration_ms() const {
  const std::uint64_t end = stop_ns_ != 0 ? stop_ns_ : monotonic_ns();
  return static_cast<double>(end - start_ns_) / 1e6;
}

std::uint64_t Profiler::total_samples() const {
  std::uint64_t total = 0;
  std::string path;
  walk_tree(&root_, path, [&](const FrameNode& n, const std::string&) {
    total += n.samples.load(std::memory_order_relaxed);
  });
  return total;
}

std::uint64_t Profiler::total_alloc_bytes() const {
  std::uint64_t total = 0;
  std::string path;
  walk_tree(&root_, path, [&](const FrameNode& n, const std::string&) {
    total += n.alloc_bytes.load(std::memory_order_relaxed);
  });
  return total;
}

std::uint64_t Profiler::total_allocs() const {
  std::uint64_t total = 0;
  std::string path;
  walk_tree(&root_, path, [&](const FrameNode& n, const std::string&) {
    total += n.allocs.load(std::memory_order_relaxed);
  });
  return total;
}

std::string Profiler::collapsed() const {
  return render_collapsed(collect_by_path(&root_, [](const FrameNode& n) {
    return n.samples.load(std::memory_order_relaxed);
  }));
}

std::string Profiler::collapsed_alloc() const {
  return render_collapsed(collect_by_path(&root_, [](const FrameNode& n) {
    return n.alloc_bytes.load(std::memory_order_relaxed);
  }));
}

common::Json Profiler::to_json() const {
  // Merge nodes by path first (same literal text across TUs), then
  // compute cumulative counts from the merged rows: a row's cumulative
  // value is its self value plus every row it path-prefixes.
  struct Row {
    std::uint64_t enters = 0, samples = 0, alloc_bytes = 0, allocs = 0;
  };
  std::map<std::string, Row> rows;
  std::string path;
  walk_tree(&root_, path, [&](const FrameNode& n, const std::string& p) {
    Row& r = rows[p];
    r.enters += n.enters.load(std::memory_order_relaxed);
    r.samples += n.samples.load(std::memory_order_relaxed);
    r.alloc_bytes += n.alloc_bytes.load(std::memory_order_relaxed);
    r.allocs += n.allocs.load(std::memory_order_relaxed);
  });

  std::uint64_t total_samples = 0, total_bytes = 0, total_allocs = 0;
  for (const auto& [p, r] : rows) {
    total_samples += r.samples;
    total_bytes += r.alloc_bytes;
    total_allocs += r.allocs;
  }

  common::Json frames = common::Json::array();
  for (const auto& [p, r] : rows) {
    std::uint64_t cum_samples = r.samples, cum_bytes = r.alloc_bytes;
    const std::string prefix = p + ';';
    for (auto it = rows.upper_bound(p);
         it != rows.end() && it->first.compare(0, prefix.size(), prefix) == 0;
         ++it) {
      cum_samples += it->second.samples;
      cum_bytes += it->second.alloc_bytes;
    }
    const std::size_t sep = p.rfind(';');
    common::Json f = common::Json::object();
    f["path"] = p;
    f["name"] = sep == std::string::npos ? p : p.substr(sep + 1);
    f["enters"] = r.enters;
    f["self_samples"] = r.samples;
    f["cum_samples"] = cum_samples;
    f["alloc_bytes"] = r.alloc_bytes;
    f["cum_alloc_bytes"] = cum_bytes;
    f["allocs"] = r.allocs;
    frames.push_back(std::move(f));
  }

  common::Json locks = common::Json::array();
  for (const auto& s : ProfiledMutex::snapshot_all()) {
    common::Json l = common::Json::object();
    l["name"] = s.name;
    l["acquisitions"] = s.acquisitions;
    l["contended"] = s.contended;
    l["wait_ms"] = s.wait_ms;
    locks.push_back(std::move(l));
  }

  common::Json out = common::Json::object();
  out["kind"] = "intellog_profile";
  out["schema_version"] = 1;
  out["sample_period_us"] = opts_.sample_period_us;
  out["duration_ms"] = duration_ms();
  out["sampler_ticks"] = sampler_ticks();
  out["total_samples"] = total_samples;
  out["total_alloc_bytes"] = total_bytes;
  out["total_allocs"] = total_allocs;
  out["unattributed_alloc_bytes"] = unattributed_alloc_bytes();
  out["unattributed_allocs"] = unattributed_allocs();
  out["alloc_tracking"] = opts_.track_allocs;
  out["frames"] = std::move(frames);
  out["locks"] = std::move(locks);
  return out;
}

std::vector<HotFrame> Profiler::hot_frames(std::size_t n) const {
  struct Row {
    std::uint64_t samples = 0, alloc_bytes = 0, allocs = 0;
  };
  std::map<std::string, Row> rows;
  std::string path;
  walk_tree(&root_, path, [&](const FrameNode& node, const std::string& p) {
    Row& r = rows[p];
    r.samples += node.samples.load(std::memory_order_relaxed);
    r.alloc_bytes += node.alloc_bytes.load(std::memory_order_relaxed);
    r.allocs += node.allocs.load(std::memory_order_relaxed);
  });
  std::uint64_t total = 0;
  for (const auto& [p, r] : rows) total += r.samples;

  std::vector<HotFrame> out;
  out.reserve(rows.size());
  for (const auto& [p, r] : rows) {
    if (r.samples == 0 && r.alloc_bytes == 0) continue;
    HotFrame h;
    h.path = p;
    h.self_samples = r.samples;
    h.alloc_bytes = r.alloc_bytes;
    h.allocs = r.allocs;
    h.self_pct = total > 0 ? 100.0 * static_cast<double>(r.samples) /
                                 static_cast<double>(total)
                           : 0.0;
    out.push_back(std::move(h));
  }
  std::sort(out.begin(), out.end(), [](const HotFrame& a, const HotFrame& b) {
    if (a.self_samples != b.self_samples) return a.self_samples > b.self_samples;
    if (a.alloc_bytes != b.alloc_bytes) return a.alloc_bytes > b.alloc_bytes;
    return a.path < b.path;
  });
  if (out.size() > n) out.resize(n);
  return out;
}

std::string Profiler::hot_table(std::size_t n) const {
  const std::vector<HotFrame> hot = hot_frames(n);
  std::ostringstream os;
  os << "  " << "self%   samples   alloc_bytes  frame\n";
  for (const HotFrame& h : hot) {
    char pct[16];
    std::snprintf(pct, sizeof(pct), "%5.1f", h.self_pct);
    os << "  " << pct << "  " << std::setw(8) << h.self_samples << "  "
       << std::setw(12) << h.alloc_bytes << "  " << h.path << "\n";
  }
  return os.str();
}

Profiler* profiler() { return g_profiler.load(std::memory_order_acquire); }

ProfFrame::ProfFrame(const char* name) {
  Profiler* p = profiler();
  if (p == nullptr) return;
  using namespace prof_detail;
  flush_pending();  // pending alloc counts belong to the frame we leave
  FrameNode* parent = (t_gen == p->generation() && t_frame != nullptr)
                          ? t_frame
                          : p->root_mutable();
  FrameNode* node = p->descend(parent, name);
  node->enters.fetch_add(1, std::memory_order_relaxed);
  prev_frame_ = t_frame;
  prev_gen_ = t_gen;
  gen_ = p->generation();
  t_frame = node;
  t_gen = gen_;
  ts_ = thread_state();
  ts_->current.store(node, std::memory_order_release);
}

void ProfFrame::close() {
  if (ts_ == nullptr) return;
  using namespace prof_detail;
  flush_pending();  // attribute this frame's pending counts before unwinding
  t_frame = prev_frame_;
  t_gen = prev_gen_;
  // Never publish a pointer from another session into the sampler slot:
  // the previous frame is only safe to sample if it belongs to the same
  // generation as the one we are unwinding from.
  ts_->current.store(prev_gen_ == gen_ ? prev_frame_ : nullptr,
                     std::memory_order_release);
  ts_ = nullptr;
}

ProfFrame::~ProfFrame() { close(); }

}  // namespace intellog::obs
