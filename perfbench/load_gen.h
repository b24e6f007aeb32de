#ifndef RDD_PERFBENCH_LOAD_GEN_H_
#define RDD_PERFBENCH_LOAD_GEN_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace rdd::perfbench {

/// Shape of one open-loop load phase against a serving daemon.
struct LoadSpec {
  std::string socket_path;
  int connections = 1;
  /// Offered rate over all connections, queries per second. Query i is due
  /// at start + i / rate and is sent by connection i % connections.
  double rate = 1000.0;
  /// Phase length; ignored (runs until `stop`) when `stop` is set.
  double seconds = 1.0;
  int nodes_per_query = 1;
  int64_t num_nodes = 1;
  uint64_t seed = 0;
  /// Optional external stop flag for phases that last as long as other work.
  const std::atomic<bool>* stop = nullptr;
  /// CPU the client threads run on; -1 leaves them to the scheduler.
  int cpu = -1;
};

/// Per-query samples of one phase, in microseconds. Latency is counted from
/// the query's due time, so a stall also delays every query queued behind
/// it; lag is how late the generator sent; rtt is send to reply.
struct LoadResult {
  std::vector<double> latency_us;
  std::vector<double> lag_us;
  std::vector<double> rtt_us;
  int64_t attempted = 0;
  int64_t failed = 0;

  void Append(const LoadResult& other);
};

/// Runs one open-loop phase: one thread and one blocking DaemonClient per
/// connection, each sending its share of a uniform schedule regardless of
/// how earlier queries fared. Failed connects count every query of that
/// connection as failed.
LoadResult RunOpenLoop(const LoadSpec& spec);

/// The highest-numbered CPU the process may run on.
int LastAllowedCpu();

/// Restricts the calling thread to `cpu`; threads it creates afterwards
/// inherit the restriction. Returns false when the kernel refuses.
bool PinCurrentThread(int cpu);

/// Lifts the restriction: the calling thread may run on every CPU the
/// process may.
void UnpinCurrentThread();


}  // namespace rdd::perfbench

#endif  // RDD_PERFBENCH_LOAD_GEN_H_
