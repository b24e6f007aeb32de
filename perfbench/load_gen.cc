#include "load_gen.h"

#include <sched.h>
#include <sys/prctl.h>

#include <algorithm>
#include <chrono>
#include <thread>

#include "serve/daemon.h"
#include "util/random.h"

namespace rdd::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

/// Sleeps to just short of `due`, then spins: a plain sleep overshoots by the
/// scheduler's wake-up latency, which would read as server latency.
void WaitUntil(Clock::time_point due) {
  constexpr auto kSpin = std::chrono::microseconds(100);
  if (due - Clock::now() > kSpin) std::this_thread::sleep_until(due - kSpin);
  while (Clock::now() < due) {
  }
}

double Micros(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

}  // namespace

void LoadResult::Append(const LoadResult& other) {
  latency_us.insert(latency_us.end(), other.latency_us.begin(),
                    other.latency_us.end());
  lag_us.insert(lag_us.end(), other.lag_us.begin(), other.lag_us.end());
  rtt_us.insert(rtt_us.end(), other.rtt_us.begin(), other.rtt_us.end());
  attempted += other.attempted;
  failed += other.failed;
}

LoadResult RunOpenLoop(const LoadSpec& spec) {
  const int connections = std::max(spec.connections, 1);
  const double period_s = 1.0 / spec.rate;
  const int64_t total =
      spec.stop != nullptr
          ? INT64_MAX
          : std::max<int64_t>(1, static_cast<int64_t>(spec.rate * spec.seconds));
  std::vector<LoadResult> parts(static_cast<size_t>(connections));
  // Connect before the clock starts so connection set-up is not load.
  std::vector<StatusOr<DaemonClient>> clients;
  for (int c = 0; c < connections; ++c) {
    clients.push_back(DaemonClient::Connect(spec.socket_path));
  }
  const Clock::time_point start =
      Clock::now() + std::chrono::milliseconds(2);

  auto worker = [&](int c) {
    // 1 ns timer slack: the default 50 us would be added to every wake-up.
    prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    if (spec.cpu >= 0) PinCurrentThread(spec.cpu);
    LoadResult& out = parts[static_cast<size_t>(c)];
    Rng rng(spec.seed + static_cast<uint64_t>(c));
    std::vector<int64_t> nodes(static_cast<size_t>(spec.nodes_per_query));
    for (int64_t i = c; i < total; i += connections) {
      const Clock::time_point due =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(period_s * i));
      if (spec.stop != nullptr && spec.stop->load()) break;
      WaitUntil(due);
      for (int64_t& n : nodes) n = rng.UniformInt(spec.num_nodes);
      ++out.attempted;
      if (!clients[static_cast<size_t>(c)].ok()) {
        ++out.failed;
        continue;
      }
      const Clock::time_point sent = Clock::now();
      const StatusOr<std::vector<int64_t>> labels =
          clients[static_cast<size_t>(c)]->PredictLabels(nodes);
      const Clock::time_point done = Clock::now();
      if (!labels.ok() || labels->size() != nodes.size()) {
        ++out.failed;
        continue;
      }
      out.latency_us.push_back(Micros(done - due));
      out.lag_us.push_back(Micros(sent - due));
      out.rtt_us.push_back(Micros(done - sent));
    }
  };
  // Every connection gets a thread of its own, so pinning and timer slack
  // never leak onto the caller.
  std::vector<std::thread> threads;
  for (int c = 0; c < connections; ++c) threads.emplace_back(worker, c);
  for (std::thread& t : threads) t.join();

  LoadResult result;
  for (const LoadResult& part : parts) result.Append(part);
  return result;
}

namespace {

/// The CPUs the process may use, read once, before anything is pinned (the
/// first caller is LastAllowedCpu on the unpinned main thread).
const cpu_set_t& AllowedCpus() {
  static const cpu_set_t allowed = [] {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0) CPU_SET(0, &set);
    return set;
  }();
  return allowed;
}

}  // namespace

int LastAllowedCpu() {
  int last = 0;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &AllowedCpus())) last = cpu;
  }
  return last;
}

bool PinCurrentThread(int cpu) {
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  return sched_setaffinity(0, sizeof(one), &one) == 0;
}

void UnpinCurrentThread() {
  sched_setaffinity(0, sizeof(cpu_set_t), &AllowedCpus());
}

}  // namespace rdd::perfbench
