// The names the RPC-fronting router had before ShardRouter took over
// every transport. ShardRouter (service/router.h) routes over local and
// RPC backends alike; these aliases only keep the spelling the serving
// benchmark in perfbench/ uses compiling, because that benchmark is
// frozen so its results stay comparable across changes. New code uses
// ShardRouter / RouterOptions directly.

#pragma once

#include "service/router.h"

namespace comparesets {

using RpcShardRouter = ShardRouter;
using RpcRouterOptions = RouterOptions;

}  // namespace comparesets
