// Warm-standby Coordinator HA: configuration and roles.
//
// The primary Coordinator ships a deterministic operation log (session
// open/close, port registration, admission decisions, group/stream
// lifecycle, shared delivery groups, share batches and member splits,
// pending-queue changes, background copies — see the ReplRecord variant in
// src/net/message.h) to a standby over the simulated network, Harp-style
// (Liskov et al., SOSP '91). Each record is the only write of its change:
// the primary applies it as it appends it (Coordinator::Replicate), and the
// standby applies the same record with the same code (Coordinator::Apply).
// So on takeover the standby already holds every session, active stream,
// shared group, open batch, queued request and the full resource ledger:
// admitted streams keep playing, queued requests stay queued, in-flight
// recordings are not orphaned.
//
// Fencing is epoch-numbered and lease-based (Gray & Cheriton):
//   * Exactly one coordinator owns each epoch. MSUs and clients learn the
//     epoch when they register; MSUs refuse data-path commands stamped with
//     an older epoch, so a deposed primary cannot start or delete streams.
//   * In this simulator a TCP connection breaks only when a peer NODE dies
//     (partitions hold segments instead), so a broken replication conn is
//     proof of peer death: the primary continues solo, and a joined standby
//     promotes itself immediately.
//   * A silent-but-alive link means a partition. The primary steps down when
//     an append goes unacknowledged for kHaLease; the standby promotes only
//     after kTakeoverGrace > kHaLease of silence. One simulation clock, so
//     the deposed primary is always fenced before the standby serves.
//   * Every externally visible mutation is acknowledged by the standby
//     before the client sees the response (synchronous log shipping); a
//     primary crash can only lose admissions the client was never told
//     about, which the MSU reconciliation sweep then garbage-collects.
//
// The HA member functions of Coordinator live in replication.cc.
#ifndef CALLIOPE_SRC_COORD_REPLICATION_H_
#define CALLIOPE_SRC_COORD_REPLICATION_H_

#include <string>

#include "src/util/units.h"

namespace calliope {

enum class HaRole { kPrimary, kStandby };

// Maximum quiet gap between appends; empty batches double as heartbeats.
inline constexpr SimTime kHaHeartbeat = SimTime::Millis(250);
// An append unacknowledged this long deposes the primary (self-fencing).
inline constexpr SimTime kHaLease = SimTime::Millis(900);
// A joined standby promotes itself after this much append silence. Exceeds
// kHaLease so the old primary always fences first.
inline constexpr SimTime kTakeoverGrace = SimTime::Millis(1500);
static_assert(kTakeoverGrace > kHaLease);
// A standby that never receives a snapshot (no live primary anywhere, e.g.
// both crashed before the first join) self-promotes after this long, two
// epochs ahead so it can never collide with an unseen takeover.
inline constexpr SimTime kOrphanGrace = SimTime::Seconds(4);
// After takeover, MSUs that have not redialed the new primary within this
// window are declared down and their groups failed over.
inline constexpr SimTime kMsuRejoinGrace = SimTime::Seconds(3);

struct HaConfig {
  HaConfig() = default;

  bool enabled = false;
  std::string peer_node;  // the other coordinator's node
  int peer_port = 5000;   // its control listen port
  bool start_as_standby = false;
};

}  // namespace calliope

#endif  // CALLIOPE_SRC_COORD_REPLICATION_H_
