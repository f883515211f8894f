// The fleet's replicas are engine::Replica, the continuous-batching core
// shared with the single-replica ServingSimulator (see engine/replica.h).
#pragma once

#include "engine/replica.h"

namespace mib::fleet {

using engine::Replica;
using engine::ReplicaConfig;
using engine::Sequence;

}  // namespace mib::fleet
