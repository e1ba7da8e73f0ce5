// Performance Observatory: sampling profiler, allocation attribution,
// contention accounting, and the collapsed/pprof exports.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "obs/profile/profile.hpp"
#include "obs/profile/profiled_mutex.hpp"

using namespace intellog;
using obs::ProfFrame;
using obs::Profiler;
using obs::ProfilerOptions;

namespace {

ProfilerOptions fast_opts() {
  ProfilerOptions opts;
  opts.sample_period_us = 50;  // sample fast so short tests collect plenty
  opts.track_allocs = true;
  return opts;
}

/// Burns CPU (and keeps the innermost frame open) for roughly `ms`.
void busy_ms(int ms) {
  const auto until = std::chrono::steady_clock::now() + std::chrono::milliseconds(ms);
  volatile std::uint64_t sink = 0;
  while (std::chrono::steady_clock::now() < until) {
    for (int i = 0; i < 1000; ++i) sink += static_cast<std::uint64_t>(i);
  }
}

const obs::FrameNode* find_child(const obs::FrameNode* parent, const std::string& name) {
  for (const obs::FrameNode* c = parent->first_child.load(); c; c = c->next_sibling) {
    if (name == c->name) return c;
  }
  return nullptr;
}

}  // namespace

TEST(Profile, FramesAreNoopsWithoutAProfiler) {
  ASSERT_EQ(obs::profiler(), nullptr);
  PROF_FRAME("test.orphan");  // must not crash or allocate tree nodes
  {
    ProfFrame f("test.orphan_nested");
    f.close();
    f.close();  // idempotent
  }
  SUCCEED();
}

TEST(Profile, FrameTreeRecordsNestedPathsAndEnters) {
  Profiler prof(fast_opts());
  for (int i = 0; i < 3; ++i) {
    PROF_FRAME("test.outer");
    PROF_FRAME("test.inner");
  }
  {
    PROF_FRAME("test.outer");  // re-entering reuses the same node
  }
  prof.stop();

  const obs::FrameNode* outer = find_child(prof.root(), "test.outer");
  ASSERT_NE(outer, nullptr);
  EXPECT_EQ(outer->enters.load(), 4u);
  const obs::FrameNode* inner = find_child(outer, "test.inner");
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(inner->enters.load(), 3u);
  EXPECT_EQ(find_child(prof.root(), "test.inner"), nullptr);  // nested, not root
}

TEST(Profile, SamplerAttributesCpuToTheInnermostFrame) {
  Profiler prof(fast_opts());
  {
    PROF_FRAME("test.hot");
    busy_ms(40);
  }
  prof.stop();

  EXPECT_GT(prof.sampler_ticks(), 0u);
  const obs::FrameNode* hot = find_child(prof.root(), "test.hot");
  ASSERT_NE(hot, nullptr);
  // 40ms at a 50us period is ~800 opportunities; even a heavily loaded
  // machine lands well more than a handful in the busy loop.
  EXPECT_GT(hot->samples.load(), 5u);
  EXPECT_GE(prof.total_samples(), hot->samples.load());
}

TEST(Profile, AllocationBytesLandOnTheInnermostFrame) {
  Profiler prof(fast_opts());
  constexpr std::size_t kBytes = 1 << 20;
  {
    PROF_FRAME("test.alloc_outer");
    {
      PROF_FRAME("test.alloc_heavy");
      std::vector<std::string> keep;
      for (int i = 0; i < 64; ++i) keep.emplace_back(kBytes / 64, 'x');
    }
  }
  prof.stop();

  const obs::FrameNode* outer = find_child(prof.root(), "test.alloc_outer");
  ASSERT_NE(outer, nullptr);
  const obs::FrameNode* heavy = find_child(outer, "test.alloc_heavy");
  ASSERT_NE(heavy, nullptr);
  EXPECT_GE(heavy->alloc_bytes.load(), kBytes);  // >= : SSO/overhead only adds
  EXPECT_GE(heavy->allocs.load(), 64u);
  // The outer frame only pays for its own (vector bookkeeping) allocations.
  EXPECT_LT(outer->alloc_bytes.load(), kBytes / 2);
  EXPECT_GE(prof.total_alloc_bytes(), heavy->alloc_bytes.load());
}

TEST(Profile, SecondSessionStartsCleanAndFirstStaysReadable) {
  std::uint64_t first_bytes = 0;
  {
    Profiler prof(fast_opts());
    PROF_FRAME("test.session_one");
    std::string s(4096, 'a');
    prof.stop();
    first_bytes = prof.total_alloc_bytes();
    EXPECT_NE(find_child(prof.root(), "test.session_one"), nullptr);
  }
  {
    Profiler prof(fast_opts());
    {
      PROF_FRAME("test.session_two");
      std::string s(4096, 'b');
    }
    prof.stop();
    EXPECT_EQ(find_child(prof.root(), "test.session_one"), nullptr);
    EXPECT_NE(find_child(prof.root(), "test.session_two"), nullptr);
  }
  EXPECT_GE(first_bytes, 4096u);
}

TEST(Profile, FrameLeftOpenAcrossSessionsNeverPollutesTheNextTree) {
  // A frame constructed under session N must not attribute anything to a
  // session M > N tree (generation stamps), even though it closes late.
  auto first = std::make_unique<Profiler>(fast_opts());
  auto stale = std::make_unique<ProfFrame>("test.stale");
  first->stop();
  first.reset();

  Profiler second(fast_opts());
  std::string s(8192, 'c');       // allocates while the stale frame is "open"
  stale->close();                 // late close: must be harmless
  stale.reset();
  {
    PROF_FRAME("test.fresh");
    std::string t(1024, 'd');
  }
  second.stop();
  EXPECT_EQ(find_child(second.root(), "test.stale"), nullptr);
  EXPECT_NE(find_child(second.root(), "test.fresh"), nullptr);
}

TEST(Profile, OnlyOneProfilerAtATime) {
  Profiler prof(fast_opts());
  EXPECT_THROW(Profiler second(fast_opts()), std::runtime_error);
}

TEST(Profile, WorkerThreadFramesRegisterWithTheSampler) {
  Profiler prof(fast_opts());
  std::thread worker([] {
    PROF_FRAME("test.worker");
    busy_ms(30);
  });
  worker.join();
  prof.stop();
  const obs::FrameNode* w = find_child(prof.root(), "test.worker");
  ASSERT_NE(w, nullptr);
  EXPECT_GT(w->samples.load(), 0u);
}

TEST(Profile, CollapsedExportIsWellFormedAndBalanced) {
  Profiler prof(fast_opts());
  {
    PROF_FRAME("test.a");
    {
      PROF_FRAME("test.b");
      busy_ms(20);
      std::string s(1 << 16, 'x');
    }
    busy_ms(10);
  }
  prof.stop();

  std::uint64_t cpu_weight = 0;
  std::istringstream lines(prof.collapsed());
  std::string line;
  std::size_t n_lines = 0;
  while (std::getline(lines, line)) {
    ++n_lines;
    const auto sp = line.rfind(' ');
    ASSERT_NE(sp, std::string::npos) << line;
    const std::string path = line.substr(0, sp);
    EXPECT_FALSE(path.empty());
    EXPECT_NE(path.front(), ';');
    EXPECT_NE(path.back(), ';');
    cpu_weight += std::stoull(line.substr(sp + 1));
  }
  EXPECT_GT(n_lines, 0u);
  // Collapsed-stack weights are exactly the tree's self samples.
  EXPECT_EQ(cpu_weight, prof.total_samples());

  std::uint64_t alloc_weight = 0;
  std::istringstream alloc_lines(prof.collapsed_alloc());
  while (std::getline(alloc_lines, line)) {
    const auto sp = line.rfind(' ');
    ASSERT_NE(sp, std::string::npos) << line;
    alloc_weight += std::stoull(line.substr(sp + 1));
  }
  EXPECT_EQ(alloc_weight, prof.total_alloc_bytes());
}

TEST(Profile, PprofJsonTotalsBalanceAgainstFrameRows) {
  Profiler prof(fast_opts());
  {
    PROF_FRAME("test.p");
    busy_ms(15);
    std::string s(1 << 14, 'y');
  }
  prof.stop();

  const common::Json doc = prof.to_json();
  EXPECT_EQ(doc["kind"].as_string(), "intellog_profile");
  EXPECT_EQ(doc["schema_version"].as_int(), 1);
  EXPECT_GT(doc["duration_ms"].as_double(), 0.0);
  std::uint64_t samples = 0, bytes = 0;
  for (const common::Json& f : doc["frames"].as_array()) {
    samples += static_cast<std::uint64_t>(f["self_samples"].as_int());
    bytes += static_cast<std::uint64_t>(f["alloc_bytes"].as_int());
    EXPECT_GE(f["cum_samples"].as_int(), f["self_samples"].as_int());
    EXPECT_GE(f["cum_alloc_bytes"].as_int(), f["alloc_bytes"].as_int());
  }
  EXPECT_EQ(samples, static_cast<std::uint64_t>(doc["total_samples"].as_int()));
  EXPECT_EQ(bytes, static_cast<std::uint64_t>(doc["total_alloc_bytes"].as_int()));
}

TEST(Profile, HotFramesAreOrderedBySelfSamples) {
  Profiler prof(fast_opts());
  {
    PROF_FRAME("test.cold");
    busy_ms(5);
  }
  {
    PROF_FRAME("test.warm");
    busy_ms(50);
  }
  prof.stop();

  const auto hot = prof.hot_frames(10);
  ASSERT_GE(hot.size(), 2u);
  for (std::size_t i = 1; i < hot.size(); ++i) {
    EXPECT_GE(hot[i - 1].self_samples, hot[i].self_samples);
  }
  EXPECT_EQ(hot.front().path, "test.warm");
  const std::string table = prof.hot_table(10);
  EXPECT_NE(table.find("test.warm"), std::string::npos);
}

TEST(ProfiledMutexTest, CountsAcquisitionsAndContention) {
  obs::ProfiledMutex mu("test.contended");
  {
    std::lock_guard<obs::ProfiledMutex> g(mu);  // uncontended
  }

  std::atomic<bool> locked{false}, release{false};
  std::thread holder([&] {
    std::lock_guard<obs::ProfiledMutex> g(mu);
    locked.store(true);
    while (!release.load()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  });
  while (!locked.load()) std::this_thread::yield();
  std::thread waiter([&] {
    std::lock_guard<obs::ProfiledMutex> g(mu);  // must block on holder
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  release.store(true);
  holder.join();
  waiter.join();

  bool found = false;
  for (const auto& row : obs::ProfiledMutex::snapshot_all()) {
    if (row.name != std::string("test.contended")) continue;
    found = true;
    EXPECT_GE(row.acquisitions, 3u);
    EXPECT_GE(row.contended, 1u);
    EXPECT_GT(row.wait_ms, 0.0);
  }
  EXPECT_TRUE(found);
}

TEST(PoolMetrics, RegistryBridgePublishesQueueAndWorkerTelemetry) {
  obs::MetricsRegistry reg;
  obs::set_registry(&reg);  // installs the pool-metrics bridge
  {
    common::ThreadPool pool(2);
    std::vector<std::future<int>> futs;
    for (int i = 0; i < 32; ++i) {
      futs.push_back(pool.submit([i] {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        return i;
      }));
    }
    for (auto& f : futs) f.get();

    // completed_ is bumped after the task body (and its future) resolves;
    // give the last worker a beat to finish its bookkeeping.
    common::ThreadPool::Stats st = pool.stats();
    for (int i = 0; i < 1000 && st.tasks_completed < 32; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      st = pool.stats();
    }
    EXPECT_EQ(st.tasks_enqueued, 32u);
    EXPECT_EQ(st.tasks_completed, 32u);
    ASSERT_EQ(st.workers.size(), 2u);
    std::uint64_t busy = 0;
    for (const auto& w : st.workers) busy += w.busy_us;
    EXPECT_GT(busy, 0u);
  }  // pool destruction retires workers through the bridge
  obs::set_registry(nullptr);

  const obs::Counter* tasks = reg.find_counter("intellog_pool_tasks_total");
  ASSERT_NE(tasks, nullptr);
  EXPECT_EQ(tasks->value(), 32u);
  const obs::Histogram* delay = reg.find_histogram("intellog_pool_queue_delay_ms");
  ASSERT_NE(delay, nullptr);
  EXPECT_EQ(delay->count(), 32u);
  const obs::Gauge* depth = reg.find_gauge("intellog_pool_queue_depth");
  ASSERT_NE(depth, nullptr);
  EXPECT_EQ(depth->value(), 0);  // all enqueues matched by dequeues
  const obs::Counter* retired = reg.find_counter("intellog_pool_retired_total");
  ASSERT_NE(retired, nullptr);
  EXPECT_EQ(retired->value(), 1u);  // counts pools shut down, not workers
  const obs::Counter* busy_us = reg.find_counter("intellog_pool_busy_us_total");
  ASSERT_NE(busy_us, nullptr);
  EXPECT_GT(busy_us->value(), 0u);
}

TEST(PoolMetrics, NoRegistryMeansNoObserverAndNoCrash) {
  obs::set_registry(nullptr);
  common::ThreadPool pool(2);
  auto f = pool.submit([] { return 7; });
  EXPECT_EQ(f.get(), 7);
}

TEST(Profile, ThreadPoolWorkUnderProfilerAttributesToPoolThreads) {
  Profiler prof(fast_opts());
  {
    common::ThreadPool pool(2);
    std::vector<std::future<void>> futs;
    for (int i = 0; i < 4; ++i) {
      futs.push_back(pool.submit([] {
        PROF_FRAME("test.pool_task");
        busy_ms(10);
        std::string s(2048, 'z');
      }));
    }
    for (auto& f : futs) f.get();
  }  // pool joined before the profiler stops: quiescence invariant
  prof.stop();
  const obs::FrameNode* task = find_child(prof.root(), "test.pool_task");
  ASSERT_NE(task, nullptr);
  EXPECT_EQ(task->enters.load(), 4u);
  EXPECT_GE(task->alloc_bytes.load(), 4u * 2048u);
}

TEST(Profile, ConcurrentFirstEntryIntoOnePathYieldsOneNode) {
  // Racing first entries into one call path must converge on one node; a
  // duplicate sibling would split the frame's counts across two nodes.
  static const char* const kName = "test.race";
  constexpr int kThreads = 4;
  constexpr int kRounds = 300;
  for (int round = 0; round < kRounds; ++round) {
    Profiler prof(fast_opts());
    std::atomic<int> ready{0};
    std::atomic<bool> go{false};
    std::vector<obs::FrameNode*> got(kThreads, nullptr);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        ready.fetch_add(1);
        while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
        got[t] = prof.descend(prof.root_mutable(), kName);
      });
    }
    while (ready.load() < kThreads) std::this_thread::yield();
    go.store(true, std::memory_order_release);
    for (auto& th : threads) th.join();
    prof.stop();

    for (int t = 1; t < kThreads; ++t) {
      ASSERT_EQ(got[t], got[0]) << "round " << round << " thread " << t;
    }
    int named = 0;
    for (const obs::FrameNode* c = prof.root()->first_child.load(); c;
         c = c->next_sibling) {
      if (c->name == kName) ++named;
    }
    ASSERT_EQ(named, 1) << "round " << round;
  }
}
