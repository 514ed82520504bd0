// The three serving workloads. Each Run* builds its serving stack from
// the run seed (timing the set-up), warms it untimed, drives it for
// `seconds`, checks its answers against an oracle and fills `report`.
// With an enabled tracer the run also records spans around every call
// into a layer's public functions and adds the per-layer metrics.
#pragma once

#include "common.h"
#include "trace.h"
#include "util/status.h"

namespace perfbench {

struct PassOptions {
  double seconds = 10.0;
  /// Set-ups timed; setup_s is their median.
  int setup_reps = 3;
};

/// Four closed-loop callers, lone aligned CompaReSetS+ Selects on a
/// 1-shard local router configured as `serve` configures it.
comparesets::Status RunSelectAlign(const RunArgs& args,
                                   const PassOptions& pass, Tracer* tracer,
                                   RunReport* report);

/// One caller, SelectBatch chunks of 32 through RpcShardRouter to two
/// in-process ShardServers over unix sockets, alignment off.
comparesets::Status RunBatchRpc(const RunArgs& args, const PassOptions& pass,
                                Tracer* tracer, RunReport* report);

/// Three closed-loop Zipfian readers on a 2-shard local router beside
/// one open-loop WAL writer that drains every 8 records.
comparesets::Status RunHotIngest(const RunArgs& args, const PassOptions& pass,
                                 Tracer* tracer, RunReport* report);

}  // namespace perfbench
