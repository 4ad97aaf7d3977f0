// Global byte accounting for everything one endpoint holds on behalf of
// its connections: packet-pool buffers, receiver held-state (reorder
// queues and reassembly staging), and any other transient staging.
//
// The governor answers two questions the per-receiver caps of
// docs/ROBUSTNESS.md cannot: "how much is this ENDPOINT holding across
// all connections?" and "who should give memory back when the answer is
// 'too much'?". Components charge/release bytes under a client id (the
// connection id; 0 for shared infrastructure such as the buffer pool).
// Two watermarks shape behaviour:
//
//  - soft: above it the endpoint is *pressured* — credit grants shrink
//    (flow control backs senders off) and shedding may be invoked;
//  - hard: the absolute budget. `fits()` says whether a further charge
//    would cross it; callers must make room (shed) or drop before
//    charging, so `charged() <= hard` is an invariant the tests assert
//    via `charged_peak`.
//
// Shedding is pull-based: clients register a hook that frees some of
// their holdings (e.g. a receiver evicts its oldest reassembly holder)
// and reports the bytes freed. `make_room()` picks victims under the
// configured policy and calls hooks OUTSIDE the governor lock, so a
// hook may re-enter `release()` freely.
//
// Admission control: `try_admit()` reserves headroom for a new
// connection; reservations count against the hard watermark for
// admission purposes only (charges still do the runtime enforcement).
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>

#include "src/obs/obs.hpp"

namespace chunknet {

/// What a charge pays for; accounted separately so metrics can show
/// where the bytes live.
enum class ResourceClass : std::uint8_t { kPool = 0, kHeld = 1, kStaging = 2 };

/// Victim-selection order when the governor must reclaim memory.
enum class ShedPolicy : std::uint8_t {
  kLargestHolderFirst = 0,  ///< most bytes held pays first
  kPriorityWeighted = 1,    ///< most bytes per unit of priority pays first
  kOldestFirst = 2,         ///< earliest-registered client pays first
};

const char* shed_policy_name(ShedPolicy p);

struct GovernorConfig {
  std::uint64_t soft_watermark_bytes{3 * 1024 * 1024 / 4};
  std::uint64_t hard_watermark_bytes{1024 * 1024};
  ShedPolicy policy{ShedPolicy::kLargestHolderFirst};
  ObsContext* obs{nullptr};
  /// Clock for span timestamps (the governor itself has no simulator
  /// dependency); null = spans are stamped 0.
  std::function<std::uint64_t()> now;
};

class ResourceGovernor {
 public:
  /// Frees some of the client's holdings and returns the bytes freed
  /// (as observed by the client's own charge/release accounting).
  /// Returning 0 means "nothing left to shed".
  using ShedFn = std::function<std::uint64_t()>;

  explicit ResourceGovernor(GovernorConfig cfg);

  ResourceGovernor(const ResourceGovernor&) = delete;
  ResourceGovernor& operator=(const ResourceGovernor&) = delete;

  /// Creates (or updates) the client entry. `priority` weights the
  /// priority-weighted shed policy (higher = more protected). Safe to
  /// call after `try_admit` already created the entry.
  void bind_client(std::uint32_t client, int priority = 1,
                   ShedFn shed = nullptr);

  /// Drops the client entry, its admission reserve, and any remaining
  /// charges (the client's buffers are gone with it).
  void unbind_client(std::uint32_t client);

  /// Admission control: succeeds iff `reserve_bytes` of headroom exist
  /// under the hard watermark after honouring every earlier admission's
  /// reserve. On success the client is registered with the reserve
  /// held until `unbind_client`.
  bool try_admit(std::uint32_t client, std::uint64_t reserve_bytes,
                 int priority = 1);

  /// Batched admission for sharded demultiplexers: reserves `bytes`
  /// of headroom under `lease_id` in ONE governor transaction so the
  /// holder can admit many connections against the lease locally,
  /// without per-connection governor traffic on the admit path.
  /// Unlike `try_admit`, acquiring again ADDS to the lease's reserve.
  bool acquire_admission_lease(std::uint32_t lease_id, std::uint64_t bytes);
  /// Hands back `bytes` of a lease's reserve (clamped to what the
  /// lease still holds).
  void release_admission_lease(std::uint32_t lease_id, std::uint64_t bytes);

  /// Accounts `bytes` to the client. Callers gate on `fits()` /
  /// `make_room()` first; charge itself never refuses, so accounting
  /// stays exact even for memory that is already live.
  void charge(std::uint32_t client, ResourceClass cls, std::uint64_t bytes);
  void release(std::uint32_t client, ResourceClass cls, std::uint64_t bytes);

  /// Would `extra` more charged bytes stay within the hard watermark?
  bool fits(std::uint64_t extra) const;
  /// Sheds victims (never `exclude_client`) under the policy until
  /// `extra` fits or no victim makes progress. Returns fits(extra).
  bool make_room(std::uint64_t extra, std::uint32_t exclude_client);
  /// Sheds until charged() <= soft watermark (same victim rules).
  /// Returns total bytes freed.
  std::uint64_t shed_to_soft();

  bool over_soft() const;
  /// Bytes of charge capacity left under the hard watermark.
  std::uint64_t headroom() const;
  /// Suggested credit window for one client: an equal share of the
  /// remaining headroom, collapsed to a small sliver under soft
  /// pressure so shrinking grants reach senders before the hard wall.
  std::uint64_t grant_hint(std::uint32_t client) const;

  struct Stats {
    std::uint64_t charged_now{0};
    std::uint64_t charged_peak{0};
    std::uint64_t reserved_now{0};
    std::uint64_t clients{0};
    std::uint64_t admissions{0};
    std::uint64_t admission_refused{0};
    std::uint64_t sheds{0};            ///< shed hooks invoked
    std::uint64_t shed_bytes{0};
    std::uint64_t soft_crossings{0};   ///< charges that crossed the soft mark
  };
  Stats stats() const;
  const GovernorConfig& config() const { return cfg_; }
  /// Per-class + total usage for one client (0s when unknown).
  std::uint64_t client_usage(std::uint32_t client) const;

 private:
  struct Client {
    std::array<std::uint64_t, 3> by_class{{0, 0, 0}};
    std::uint64_t reserve{0};
    int priority{1};
    std::uint64_t order{0};  ///< registration sequence (oldest-first)
    ShedFn shed;
    std::uint64_t total() const {
      return by_class[0] + by_class[1] + by_class[2];
    }
  };

  Client& entry_locked(std::uint32_t client);
  /// Picks the next shed victim under the policy into `victim`; false
  /// if none is eligible. `exclude` of 0 excludes nobody (client 0 —
  /// shared infrastructure like the buffer pool — is a valid victim).
  bool pick_victim_locked(std::uint32_t exclude,
                          std::uint32_t& victim) const;
  /// Runs shed hooks until `goal_charged` is reached or no progress.
  std::uint64_t shed_until_goal(std::uint64_t goal_charged,
                                       std::uint32_t exclude);
  void publish_locked();

  GovernorConfig cfg_;
  mutable std::mutex mu_;
  std::map<std::uint32_t, Client> clients_;
  std::uint64_t charged_{0};
  std::uint64_t reserved_{0};
  std::uint64_t next_order_{1};
  Stats stats_;

  Gauge* g_charged_{nullptr};
  Gauge* g_peak_{nullptr};
  Gauge* g_reserved_{nullptr};
  Gauge* g_clients_{nullptr};
  StatsBinding stats_binding_;  ///< after stats_: publishes its fields
};

}  // namespace chunknet
