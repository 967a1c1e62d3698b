// Chaos integration test (DESIGN.md §9, the robustness acceptance test):
// the real-bytes embodiment under concurrent MultiGet/Put load while a
// deterministic fault schedule crashes a site, flaps another, and injects
// transient fetch errors — all on top of silently corrupted chunks.
//
// Invariants checked:
//   - zero data loss: every read, throughout the run and afterwards, is
//     bit-exact (corrupt chunks are caught by their checksums and decoded
//     around — bad bytes never reach a client);
//   - the failure detector marks the silently crashed site dead from
//     missed heartbeats alone (no manual FailSite anywhere);
//   - the repair service reconstructs the dead site's chunks and, with
//     the scrubber, the cluster converges back to full k+r redundancy
//     with every chunk checksum-valid.
//
// Fault victims are chosen so no block ever exceeds r = 2 erasures at any
// instant, whatever the thread timing: corruption is restricted to blocks
// with no chunk on the crash or flap victims, and the flap window does not
// overlap the crash's undetected window. The invariants therefore hold
// deterministically even under heavy sanitizer slowdowns.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "common/codec_spec.h"
#include "core/local_store.h"
#include "fault/injector.h"

namespace ecstore {
namespace {

constexpr SiteId kCrashVictim = 3;
constexpr SiteId kFlapVictim = 5;
constexpr SiteId kCorruptVictim = 0;
constexpr SiteId kErrorVictim = 1;

/// Mixed-family chaos block size: divisible by k = 2 and k = 6 alike.
constexpr std::size_t kMixedBlockBytes = 6 * 1024;

std::vector<std::uint8_t> MakeBlock(std::size_t n, std::uint64_t tag) {
  std::vector<std::uint8_t> data(n);
  for (std::size_t i = 0; i < n; ++i) {
    data[i] = static_cast<std::uint8_t>((tag * 197) ^ (i * 13) ^ (i >> 7));
  }
  return data;
}

TEST(ChaosTest, ZeroDataLossUnderCrashFlapErrorsAndCorruption) {
  ECStoreConfig config = ECStoreConfig::ForTechnique(Technique::kEcCMLb);
  config.num_sites = 8;
  config.k = 2;
  config.r = 2;
  config.late_binding_delta = 1;
  config.seed = 2024;
  // Fast robustness loop so detection + grace + repair + scrub all play
  // out inside a short run.
  config.detector_suspect_after = FromMillis(120);
  config.detector_dead_after = FromMillis(250);
  config.repair_wait = FromMillis(150);
  config.maintenance_tick_ms = 15.0;
  config.scrub_every_ticks = 4;
  config.data_plane.workers_per_site = 2;
  config.data_plane.fetch_deadline_ms = 40.0;
  LocalECStore store(config);

  // Load phase: 120 blocks of 4 KB with known contents.
  constexpr BlockId kPreloaded = 120;
  constexpr std::size_t kBlockBytes = 4096;
  for (BlockId id = 0; id < kPreloaded; ++id) {
    store.Put(id, MakeBlock(kBlockBytes, id));
  }

  // Silent corruption, seeded before the storm: flip chunks at
  // kCorruptVictim for every preloaded block that has no chunk on the
  // crash or flap victims, so each block keeps at most r = 2 erasures at
  // any instant of the run. Single-threaded here; readers then hammer the
  // corrupted blocks throughout and the background scrubber repairs them
  // mid-chaos.
  std::vector<std::pair<BlockId, ChunkIndex>> corrupted;
  for (BlockId id = 0; id < kPreloaded; ++id) {
    bool on_victims = false;
    ChunkIndex at_corrupt_site = 0;
    bool has_corrupt_site = false;
    for (const ChunkLocation& loc : store.state().GetBlock(id).locations) {
      if (loc.site == kCrashVictim || loc.site == kFlapVictim) {
        on_victims = true;
      }
      if (loc.site == kCorruptVictim) {
        at_corrupt_site = loc.chunk;
        has_corrupt_site = true;
      }
    }
    if (on_victims || !has_corrupt_site) continue;
    if (store.node(kCorruptVictim).CorruptChunk(id, at_corrupt_site)) {
      corrupted.push_back({id, at_corrupt_site});
    }
  }
  ASSERT_GE(corrupted.size(), 2u) << "placement never used the corrupt site";

  // The node-level guarantee, deterministically: a corrupt chunk is never
  // handed out — the checksum turns it into an erasure — and the block
  // still decodes bit-exact around it.
  EXPECT_EQ(store.node(kCorruptVictim)
                .GetChunk(corrupted[0].first, corrupted[0].second),
            nullptr);
  EXPECT_GE(store.Usage().checksum_failures, 1u);
  for (const auto& [id, chunk] : corrupted) {
    EXPECT_EQ(store.Get(id), MakeBlock(kBlockBytes, id));
  }

  store.StartMaintenance();

  // Fault schedule (wall-clock offsets). The crash is silent — only the
  // detector may mark the site dead. The flap outlasts the dead threshold
  // so the detector fires, but heals inside the repair grace window;
  // heartbeats then revive the belief.
  std::vector<TimedAction> schedule;
  FaultActions actions = store.MakeFaultActions();
  schedule.push_back({100, [&] { actions.crash(kCrashVictim); }});
  schedule.push_back({150, [&] { actions.set_fetch_error(kErrorVictim, 0.25); }});
  schedule.push_back({600, [&] { actions.crash(kFlapVictim); }});
  schedule.push_back({900, [&] { actions.heal(kFlapVictim); }});
  schedule.push_back({1100, [&] { actions.set_fetch_error(kErrorVictim, 0.0); }});
  schedule.push_back({1400, [&] { actions.heal(kCrashVictim); }});
  InjectionThread injector(std::move(schedule));

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> reads_done{0};
  std::atomic<std::uint64_t> read_failures{0};

  // Writer: new blocks throughout the run, recorded for the final verify.
  std::mutex written_mu;
  std::vector<BlockId> written;
  std::thread writer([&] {
    BlockId next = 10'000;
    while (!stop.load(std::memory_order_relaxed)) {
      try {
        store.Put(next, MakeBlock(kBlockBytes, next));
        std::lock_guard<std::mutex> lock(written_mu);
        written.push_back(next);
      } catch (const std::exception&) {
        // Not enough believed-available sites mid-outage: skip this id.
      }
      ++next;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  });

  // Readers: hammer the preloaded blocks, verifying every byte. No gtest
  // assertions off the main thread — failures funnel into a counter.
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      std::uint64_t i = static_cast<std::uint64_t>(t) * 977;
      while (!stop.load(std::memory_order_relaxed)) {
        const BlockId a = (i * 31 + 7) % kPreloaded;
        const BlockId b = (i * 17 + 3) % kPreloaded;
        const std::vector<BlockId> ids = {a, b};
        try {
          const auto out = store.MultiGet(ids);
          if (out[0] != MakeBlock(kBlockBytes, a) ||
              out[1] != MakeBlock(kBlockBytes, b)) {
            ++read_failures;  // Wrong bytes reached a client.
          }
        } catch (const std::exception&) {
          ++read_failures;  // A block became unreadable.
        }
        ++reads_done;
        ++i;
      }
    });
  }

  injector.Start();

  // Let the whole arc play out: detection, grace, repair, scrub, flap
  // heal, revival. Generous so sanitizer slowdowns don't truncate it.
  std::this_thread::sleep_for(std::chrono::milliseconds(2100));

  stop.store(true, std::memory_order_relaxed);
  for (auto& r : readers) r.join();
  writer.join();
  injector.Stop(/*run_remaining=*/true);

  // A few more maintenance ticks so heartbeats from the healed sites
  // revive their belief, then take over single-threadedly.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  store.StopMaintenance();

  EXPECT_EQ(read_failures.load(), 0u) << "a client saw wrong or lost data";
  EXPECT_GT(reads_done.load(), 0u);

  const ControlPlaneUsage mid_usage = store.Usage();
  EXPECT_GE(mid_usage.sites_marked_dead, 1u)
      << "the detector never marked the silent crash dead";
  EXPECT_GE(mid_usage.chunks_repaired, 1u) << "repair never fired";
  EXPECT_GE(mid_usage.retried_fetches + mid_usage.degraded_reads, 1u);

  // Deterministic convergence: scrub + repair until every block is back
  // at full k+r redundancy with every chunk checksum-valid and every
  // hosting site available.
  std::vector<BlockId> all_blocks;
  for (BlockId id = 0; id < kPreloaded; ++id) all_blocks.push_back(id);
  {
    std::lock_guard<std::mutex> lock(written_mu);
    for (BlockId id : written) all_blocks.push_back(id);
  }
  const auto fully_redundant = [&](BlockId id) {
    const BlockInfo& info = store.state().GetBlock(id);
    if (info.locations.size() != config.ChunksPerBlock()) return false;
    for (const ChunkLocation& loc : info.locations) {
      if (!store.state().IsSiteAvailable(loc.site)) return false;
      if (!store.node(loc.site).HasValidChunk(id, loc.chunk)) return false;
    }
    return true;
  };
  bool converged = false;
  for (int round = 0; round < 64 && !converged; ++round) {
    store.ScrubOnce();
    for (SiteId j = 0; j < config.num_sites; ++j) {
      if (!store.state().IsSiteAvailable(j)) store.RepairSite(j);
    }
    converged = true;
    for (BlockId id : all_blocks) converged = converged && fully_redundant(id);
  }
  EXPECT_TRUE(converged) << "cluster never returned to full redundancy";

  // Final sweep: every block — preloaded and written mid-chaos — reads
  // back bit-exact.
  for (BlockId id : all_blocks) {
    EXPECT_EQ(store.Get(id), MakeBlock(kBlockBytes, id)) << "block " << id;
  }

  const ControlPlaneUsage usage = store.Usage();
  EXPECT_GE(usage.chunks_scrubbed, static_cast<std::uint64_t>(corrupted.size()))
      << "the scrubber never rewrote the corrupt chunks";
}

// Cache-enabled chaos (DESIGN.md §12): the same storm — silent crash,
// flap, transient fetch errors, pre-seeded corruption — with the decoded-
// block cache, λ prefetch, and hot-block replica promotion all live, and
// promotion/demotion rewrites racing the readers via mid-run movement
// rounds. The coherence invariant under test: a cached decode must never
// outlive its block version, so zero stale bytes reach any client even
// while scrub rewrites corrupt chunks and the promoter rewrites layouts
// underneath the cache.
TEST(ChaosTest, CacheStaysCoherentUnderCrashFlapErrorsAndCorruption) {
  ECStoreConfig config = ECStoreConfig::ForTechnique(Technique::kEcCMLb);
  config.num_sites = 8;
  config.k = 2;
  config.r = 2;
  config.late_binding_delta = 1;
  config.seed = 2025;
  config.detector_suspect_after = FromMillis(120);
  config.detector_dead_after = FromMillis(250);
  config.repair_wait = FromMillis(150);
  config.maintenance_tick_ms = 15.0;
  config.scrub_every_ticks = 4;
  config.data_plane.workers_per_site = 2;
  config.data_plane.fetch_deadline_ms = 40.0;
  // The latency tier, all on: a cache big enough to hold a good slice of
  // the working set, prefetch chasing co-access partners, and a replica
  // budget that lets the promoter rewrite layouts mid-storm.
  config.cache_capacity_bytes = 2 << 20;
  config.cache_prefetch = true;
  config.promotion.budget_bytes = 256 << 10;
  config.promotion.promote_min_frequency = 0.005;
  config.promotion.demote_frequency = 0.001;
  LocalECStore store(config);

  constexpr BlockId kPreloaded = 120;
  constexpr std::size_t kBlockBytes = 4096;
  for (BlockId id = 0; id < kPreloaded; ++id) {
    store.Put(id, MakeBlock(kBlockBytes, id));
  }

  // Same corruption discipline as the base scenario: only blocks clear of
  // the crash/flap victims, so erasures never stack past r = 2.
  std::vector<std::pair<BlockId, ChunkIndex>> corrupted;
  for (BlockId id = 0; id < kPreloaded; ++id) {
    bool on_victims = false;
    ChunkIndex at_corrupt_site = 0;
    bool has_corrupt_site = false;
    for (const ChunkLocation& loc : store.state().GetBlock(id).locations) {
      if (loc.site == kCrashVictim || loc.site == kFlapVictim) {
        on_victims = true;
      }
      if (loc.site == kCorruptVictim) {
        at_corrupt_site = loc.chunk;
        has_corrupt_site = true;
      }
    }
    if (on_victims || !has_corrupt_site) continue;
    if (store.node(kCorruptVictim).CorruptChunk(id, at_corrupt_site)) {
      corrupted.push_back({id, at_corrupt_site});
    }
  }
  ASSERT_GE(corrupted.size(), 2u) << "placement never used the corrupt site";

  // Warm the cache on the corrupted blocks BEFORE the storm: the scrubber
  // will rewrite those chunks mid-run, and the version bump must fence
  // every one of these cached decodes.
  for (const auto& [id, chunk] : corrupted) {
    EXPECT_EQ(store.Get(id), MakeBlock(kBlockBytes, id));
  }

  store.StartMaintenance();

  std::vector<TimedAction> schedule;
  FaultActions actions = store.MakeFaultActions();
  schedule.push_back({100, [&] { actions.crash(kCrashVictim); }});
  schedule.push_back({150, [&] { actions.set_fetch_error(kErrorVictim, 0.25); }});
  // Promotion/demotion rewrites race the readers at three points in the
  // storm: mid-errors, mid-flap, and after the crash heals.
  schedule.push_back({400, [&] { store.RunMovementRound(); }});
  schedule.push_back({600, [&] { actions.crash(kFlapVictim); }});
  schedule.push_back({800, [&] { store.RunMovementRound(); }});
  schedule.push_back({900, [&] { actions.heal(kFlapVictim); }});
  schedule.push_back({1100, [&] { actions.set_fetch_error(kErrorVictim, 0.0); }});
  schedule.push_back({1400, [&] { actions.heal(kCrashVictim); }});
  schedule.push_back({1600, [&] { store.RunMovementRound(); }});
  InjectionThread injector(std::move(schedule));

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> reads_done{0};
  std::atomic<std::uint64_t> read_failures{0};

  std::mutex written_mu;
  std::vector<BlockId> written;
  std::thread writer([&] {
    BlockId next = 30'000;
    while (!stop.load(std::memory_order_relaxed)) {
      try {
        store.Put(next, MakeBlock(kBlockBytes, next));
        std::lock_guard<std::mutex> lock(written_mu);
        written.push_back(next);
      } catch (const std::exception&) {
        // Not enough believed-available sites mid-outage: skip this id.
      }
      ++next;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  });

  // Readers skew toward a hot head (ids 0..15) so the promoter has clear
  // promotion candidates, while still sweeping the whole preload so the
  // corrupted blocks stay under read pressure through their scrub.
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      std::uint64_t i = static_cast<std::uint64_t>(t) * 977;
      while (!stop.load(std::memory_order_relaxed)) {
        const BlockId a = (i * 31 + 7) % 16;
        const BlockId b = (i * 17 + 3) % kPreloaded;
        const std::vector<BlockId> ids = {a, b};
        try {
          const auto out = store.MultiGet(ids);
          if (out[0] != MakeBlock(kBlockBytes, a) ||
              out[1] != MakeBlock(kBlockBytes, b)) {
            ++read_failures;  // Stale or wrong bytes reached a client.
          }
        } catch (const std::exception&) {
          ++read_failures;  // A block became unreadable.
        }
        ++reads_done;
        ++i;
      }
    });
  }

  injector.Start();
  std::this_thread::sleep_for(std::chrono::milliseconds(2100));

  stop.store(true, std::memory_order_relaxed);
  for (auto& r : readers) r.join();
  writer.join();
  injector.Stop(/*run_remaining=*/true);
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  store.StopMaintenance();

  EXPECT_EQ(read_failures.load(), 0u) << "a client saw stale or lost data";
  EXPECT_GT(reads_done.load(), 0u);

  const ControlPlaneUsage mid_usage = store.Usage();
  EXPECT_GE(mid_usage.sites_marked_dead, 1u)
      << "the detector never marked the silent crash dead";
  EXPECT_GE(mid_usage.chunks_repaired, 1u) << "repair never fired";
  // The tier actually exercised: the hot head hit the cache, and the
  // promoter rewrote at least one hot block to full replicas.
  EXPECT_GE(mid_usage.cache_hits, 1u) << "the cache never served a read";
  EXPECT_GE(mid_usage.blocks_promoted, 1u) << "the promoter never fired";
  EXPECT_LE(mid_usage.replica_extra_bytes, config.promotion.budget_bytes);

  // Convergence, per-block codec aware: promoted blocks are full replicas
  // now, so "full redundancy" is SpecTotalChunks of whatever layout each
  // block currently has.
  std::vector<BlockId> all_blocks;
  for (BlockId id = 0; id < kPreloaded; ++id) all_blocks.push_back(id);
  {
    std::lock_guard<std::mutex> lock(written_mu);
    for (BlockId id : written) all_blocks.push_back(id);
  }
  const auto fully_redundant = [&](BlockId id) {
    const BlockInfo& info = store.state().GetBlock(id);
    if (info.locations.size() != SpecTotalChunks(info.codec)) return false;
    for (const ChunkLocation& loc : info.locations) {
      if (!store.state().IsSiteAvailable(loc.site)) return false;
      if (!store.node(loc.site).HasValidChunk(id, loc.chunk)) return false;
    }
    return true;
  };
  bool converged = false;
  for (int round = 0; round < 64 && !converged; ++round) {
    store.ScrubOnce();
    for (SiteId j = 0; j < config.num_sites; ++j) {
      if (!store.state().IsSiteAvailable(j)) store.RepairSite(j);
    }
    converged = true;
    for (BlockId id : all_blocks) converged = converged && fully_redundant(id);
  }
  EXPECT_TRUE(converged) << "cluster never returned to full redundancy";

  // Final sweep — through the still-enabled cache — must be bit-exact for
  // every block, whatever mix of scrub rewrites, repairs, promotions, and
  // demotions it went through.
  for (BlockId id : all_blocks) {
    EXPECT_EQ(store.Get(id), MakeBlock(kBlockBytes, id)) << "block " << id;
  }
}

// Mixed codec families under chaos (DESIGN.md §11): one cluster carrying
// default-RS, Azure-LRC, piggyback-RS, and replicated blocks side by
// side while a silent crash, transient fetch errors, and pre-seeded
// corruption play out. Every family's degraded reads, plan-driven scrub,
// and repair must hold the zero-data-loss invariant simultaneously.
// Victims are chosen so no block exceeds 2 erasures at any instant —
// within every family's fault tolerance (LRC(6,2,2)'s floor is 2).
TEST(ChaosTest, MixedCodecFamiliesSurviveCrashErrorsAndCorruption) {
  ECStoreConfig config = ECStoreConfig::ForTechnique(Technique::kEcCMLb);
  config.num_sites = 12;  // LRC(6,2,2) needs 10 distinct sites.
  config.k = 2;
  config.r = 2;
  config.late_binding_delta = 1;
  config.seed = 4242;
  config.detector_suspect_after = FromMillis(120);
  config.detector_dead_after = FromMillis(250);
  config.repair_wait = FromMillis(150);
  config.maintenance_tick_ms = 15.0;
  config.scrub_every_ticks = 4;
  config.data_plane.workers_per_site = 2;
  config.data_plane.fetch_deadline_ms = 40.0;
  LocalECStore store(config);

  // Block id -> codec family, round-robin over the four families (empty
  // means the config default, rs(2,2)).
  const auto spec_for = [](BlockId id) -> const char* {
    switch (id % 4) {
      case 0: return "";
      case 1: return "lrc(6,2,2)";
      case 2: return "pb(6,3)";
      default: return "rep(2)";
    }
  };
  const auto put_block = [&](BlockId id) {
    const char* name = spec_for(id);
    if (*name == '\0') {
      store.Put(id, MakeBlock(kMixedBlockBytes, id));
    } else {
      store.Put(id, MakeBlock(kMixedBlockBytes, id), ParseCodecSpec(name));
    }
  };

  constexpr BlockId kPreloaded = 80;
  for (BlockId id = 0; id < kPreloaded; ++id) put_block(id);

  // Seed corruption on blocks that keep their distance from the crash
  // victim, so corrupt + crashed never stack past 2 erasures anywhere.
  std::vector<std::pair<BlockId, ChunkIndex>> corrupted;
  for (BlockId id = 0; id < kPreloaded; ++id) {
    bool on_crash_victim = false;
    ChunkIndex at_corrupt_site = 0;
    bool has_corrupt_site = false;
    for (const ChunkLocation& loc : store.state().GetBlock(id).locations) {
      if (loc.site == kCrashVictim) on_crash_victim = true;
      if (loc.site == kCorruptVictim) {
        at_corrupt_site = loc.chunk;
        has_corrupt_site = true;
      }
    }
    if (on_crash_victim || !has_corrupt_site) continue;
    if (store.node(kCorruptVictim).CorruptChunk(id, at_corrupt_site)) {
      corrupted.push_back({id, at_corrupt_site});
    }
  }
  ASSERT_GE(corrupted.size(), 2u) << "placement never used the corrupt site";
  for (const auto& [id, chunk] : corrupted) {
    EXPECT_EQ(store.Get(id), MakeBlock(kMixedBlockBytes, id));
  }

  store.StartMaintenance();

  std::vector<TimedAction> schedule;
  FaultActions actions = store.MakeFaultActions();
  schedule.push_back({100, [&] { actions.crash(kCrashVictim); }});
  schedule.push_back({150, [&] { actions.set_fetch_error(kErrorVictim, 0.25); }});
  schedule.push_back({900, [&] { actions.set_fetch_error(kErrorVictim, 0.0); }});
  schedule.push_back({1200, [&] { actions.heal(kCrashVictim); }});
  InjectionThread injector(std::move(schedule));

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> reads_done{0};
  std::atomic<std::uint64_t> read_failures{0};

  std::mutex written_mu;
  std::vector<BlockId> written;
  std::thread writer([&] {
    BlockId next = 20'000;
    while (!stop.load(std::memory_order_relaxed)) {
      try {
        put_block(next);
        std::lock_guard<std::mutex> lock(written_mu);
        written.push_back(next);
      } catch (const std::exception&) {
        // Not enough believed-available sites mid-outage: skip this id.
      }
      ++next;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  });

  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      std::uint64_t i = static_cast<std::uint64_t>(t) * 977;
      while (!stop.load(std::memory_order_relaxed)) {
        // Each MultiGet mixes families: consecutive ids span the cycle.
        const BlockId a = (i * 31 + 7) % kPreloaded;
        const BlockId b = (a + 1) % kPreloaded;
        try {
          const auto out = store.MultiGet(std::vector<BlockId>{a, b});
          if (out[0] != MakeBlock(kMixedBlockBytes, a) ||
              out[1] != MakeBlock(kMixedBlockBytes, b)) {
            ++read_failures;
          }
        } catch (const std::exception&) {
          ++read_failures;
        }
        ++reads_done;
        ++i;
      }
    });
  }

  injector.Start();
  std::this_thread::sleep_for(std::chrono::milliseconds(1800));

  stop.store(true, std::memory_order_relaxed);
  for (auto& r : readers) r.join();
  writer.join();
  injector.Stop(/*run_remaining=*/true);
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  store.StopMaintenance();

  EXPECT_EQ(read_failures.load(), 0u) << "a client saw wrong or lost data";
  EXPECT_GT(reads_done.load(), 0u);
  EXPECT_GE(store.Usage().sites_marked_dead, 1u)
      << "the detector never marked the silent crash dead";

  // Converge every family back to its own full redundancy (the per-block
  // codec decides how many chunks "full" means).
  std::vector<BlockId> all_blocks;
  for (BlockId id = 0; id < kPreloaded; ++id) all_blocks.push_back(id);
  {
    std::lock_guard<std::mutex> lock(written_mu);
    for (BlockId id : written) all_blocks.push_back(id);
  }
  const auto fully_redundant = [&](BlockId id) {
    const BlockInfo& info = store.state().GetBlock(id);
    if (info.locations.size() != SpecTotalChunks(info.codec)) return false;
    for (const ChunkLocation& loc : info.locations) {
      if (!store.state().IsSiteAvailable(loc.site)) return false;
      if (!store.node(loc.site).HasValidChunk(id, loc.chunk)) return false;
    }
    return true;
  };
  bool converged = false;
  for (int round = 0; round < 64 && !converged; ++round) {
    store.ScrubOnce();
    for (SiteId j = 0; j < config.num_sites; ++j) {
      if (!store.state().IsSiteAvailable(j)) store.RepairSite(j);
    }
    converged = true;
    for (BlockId id : all_blocks) converged = converged && fully_redundant(id);
  }
  EXPECT_TRUE(converged) << "cluster never returned to full redundancy";

  for (BlockId id : all_blocks) {
    EXPECT_EQ(store.Get(id), MakeBlock(kMixedBlockBytes, id)) << "block " << id;
  }
}

// Overload storm (DESIGN.md §14): offered load well past the admission
// cap — 8 closed-loop readers against a 4-token gate — while 2% of
// fetches straggle 20x, one site degrades to ~100x service time, and
// another site flaps (crash + heal). The overload subsystem, all four
// features on, must keep the storm *stable*:
//   - excess requests are shed fast-fail (RequestShedError), never
//     counted as data loss;
//   - the degraded site's breaker trips open, grants half-open probes
//     after the cool-off, and closes again once the site heals;
//   - the brownout ladder engages under pressure and steps back to 0
//     after the storm drains;
//   - every admitted read, throughout and afterwards, is bit-exact.
TEST(ChaosTest, OverloadStormShedsBreaksAndRecovers) {
  constexpr SiteId kSlowVictim = 2;

  ECStoreConfig config = ECStoreConfig::ForTechnique(Technique::kEcCMLb);
  config.num_sites = 8;
  config.k = 2;
  config.r = 2;
  config.late_binding_delta = 1;
  config.seed = 7777;
  config.detector_suspect_after = FromMillis(120);
  config.detector_dead_after = FromMillis(250);
  config.repair_wait = FromMillis(150);
  config.maintenance_tick_ms = 15.0;
  config.scrub_every_ticks = 4;
  config.data_plane.workers_per_site = 2;
  // A real (injected) service time so queues, sojourns, and per-site
  // latency distributions all carry signal, plus the acceptance storm's
  // straggler regime: 2% of fetches take 20x.
  config.data_plane.base_latency_ms = 2.0;
  config.data_plane.straggler_probability = 0.02;
  config.data_plane.straggler_factor = 20.0;
  // Generous fetch deadline: the degraded site serves ~200 ms fetches,
  // which late binding cancels as stragglers rather than timing out.
  config.data_plane.fetch_deadline_ms = 400.0;
  // Small rotation window so the slow site's histogram forgets the bad
  // regime from probe traffic alone once the site heals — the breaker
  // can then close within the test's drain phase.
  config.latency_window = 64;
  // The subsystem under test, everything on.
  config.overload.deadline_ms = 5000.0;  // Generous: sanitizer headroom.
  config.overload.admission = true;
  config.overload.admission_max_in_flight = 4;
  config.overload.breakers = true;
  // Above the 2%/20x straggler p99 (~40 ms) so only the degraded site
  // trips; well under its ~200 ms service time.
  config.overload.breaker_p99_ms = 80.0;
  config.overload.breaker_open_ms = 120.0;
  config.overload.breaker_half_open_probes = 64;
  config.overload.breaker_min_samples = 16;
  config.overload.brownout = true;
  config.overload.brownout_dwell_ms = 60.0;
  LocalECStore store(config);

  constexpr BlockId kPreloaded = 120;
  constexpr std::size_t kBlockBytes = 4096;
  for (BlockId id = 0; id < kPreloaded; ++id) {
    store.Put(id, MakeBlock(kBlockBytes, id));
  }

  // Warm every site's latency histogram past breaker_min_samples with
  // quiet traffic, so the degraded site trips from its p99 — not from a
  // cold-start sample count race.
  for (BlockId id = 0; id < kPreloaded; ++id) {
    ASSERT_EQ(store.Get(id), MakeBlock(kBlockBytes, id));
  }

  store.StartMaintenance();

  // The storm schedule: one site degrades to ~101x service (trips its
  // breaker), another flaps dead and heals, and the degradation lifts
  // with enough storm left for half-open probes to start flowing.
  std::vector<TimedAction> schedule;
  FaultActions actions = store.MakeFaultActions();
  schedule.push_back({100, [&] { actions.degrade(kSlowVictim, 101.0); }});
  schedule.push_back({600, [&] { actions.crash(kFlapVictim); }});
  schedule.push_back({900, [&] { actions.heal(kFlapVictim); }});
  schedule.push_back({1300, [&] { actions.degrade(kSlowVictim, 1.0); }});
  InjectionThread injector(std::move(schedule));

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> reads_done{0};
  std::atomic<std::uint64_t> reads_shed{0};
  std::atomic<std::uint64_t> deadline_hits{0};
  std::atomic<std::uint64_t> read_failures{0};

  std::mutex written_mu;
  std::vector<BlockId> written;
  std::thread writer([&] {
    BlockId next = 40'000;
    while (!stop.load(std::memory_order_relaxed)) {
      try {
        store.Put(next, MakeBlock(kBlockBytes, next));
        std::lock_guard<std::mutex> lock(written_mu);
        written.push_back(next);
      } catch (const std::exception&) {
        // Shed by admission or short of sites mid-outage: skip this id.
      }
      ++next;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  });

  // 8 closed-loop readers against a 4-token admission gate: offered load
  // ~2x the admitted concurrency, so sheds are structural, not timing
  // luck. Sheds and deadline hits are deliberate overload outcomes and
  // are counted apart from data loss. No gtest assertions off the main
  // thread — failures funnel into a counter.
  std::vector<std::thread> readers;
  for (int t = 0; t < 8; ++t) {
    readers.emplace_back([&, t] {
      std::uint64_t i = static_cast<std::uint64_t>(t) * 977;
      while (!stop.load(std::memory_order_relaxed)) {
        const BlockId a = (i * 31 + 7) % kPreloaded;
        const BlockId b = (i * 17 + 3) % kPreloaded;
        const std::vector<BlockId> ids = {a, b};
        try {
          const auto out = store.MultiGet(ids);
          if (out[0] != MakeBlock(kBlockBytes, a) ||
              out[1] != MakeBlock(kBlockBytes, b)) {
            ++read_failures;  // Wrong bytes reached a client.
          }
        } catch (const RequestShedError&) {
          ++reads_shed;  // Deliberate fast-fail; not data loss.
        } catch (const DeadlineExceededError&) {
          ++deadline_hits;  // Budget ran out; not data loss.
        } catch (const std::exception&) {
          ++read_failures;  // A block became unreadable.
        }
        ++reads_done;
        ++i;
      }
    });
  }

  injector.Start();

  // Poll the shed ladder while the storm runs: it must engage at some
  // point during the flood (pressure pins at 1.0 while all four tokens
  // stay taken).
  std::uint64_t max_level_during = 0;
  for (int slice = 0; slice < 21; ++slice) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    max_level_during =
        std::max(max_level_during, store.Usage().brownout_level);
  }

  stop.store(true, std::memory_order_relaxed);
  for (auto& r : readers) r.join();
  writer.join();
  injector.Stop(/*run_remaining=*/true);

  // Drain phase, single reader: pressure collapses, the ladder steps
  // back down, and half-open probes feed the healed slow site enough
  // quiet samples to rotate the bad regime out of its histogram and
  // close the breaker. Condition-driven with a generous cap so
  // sanitizer slowdowns don't truncate the recovery arc.
  const CircuitBreakerSet* breakers = store.overload()->breakers();
  const auto recovered = [&] {
    return breakers->StateOf(kSlowVictim) ==
               CircuitBreakerSet::State::kClosed &&
           store.Usage().brownout_level == 0;
  };
  const auto drain_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  std::uint64_t drain_i = 0;
  while (!recovered() && std::chrono::steady_clock::now() < drain_deadline) {
    const BlockId a = (drain_i * 31 + 7) % kPreloaded;
    const BlockId b = (drain_i * 17 + 3) % kPreloaded;
    const std::vector<BlockId> ids = {a, b};
    try {
      const auto out = store.MultiGet(ids);
      if (out[0] != MakeBlock(kBlockBytes, a) ||
          out[1] != MakeBlock(kBlockBytes, b)) {
        ++read_failures;
      }
    } catch (const RequestShedError&) {
      ++reads_shed;
    } catch (const std::exception&) {
      ++read_failures;
    }
    ++drain_i;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  store.StopMaintenance();

  EXPECT_EQ(read_failures.load(), 0u) << "a client saw wrong or lost data";
  EXPECT_GT(reads_done.load(), 0u);
  EXPECT_GT(reads_shed.load(), 0u) << "the gate never shed a reader";

  // The full breaker arc: tripped open on the degraded site, granted
  // half-open probes after the cool-off, and closed again post-heal.
  const ControlPlaneUsage usage = store.Usage();
  EXPECT_GE(usage.breaker_opens, 1u) << "the slow site never tripped";
  EXPECT_GE(usage.breaker_half_open_probes, 1u)
      << "no probe ever flowed in half-open";
  EXPECT_EQ(breakers->StateOf(kSlowVictim),
            CircuitBreakerSet::State::kClosed)
      << "the breaker never closed after the site healed";

  // The shed ladder: engaged during the flood, fully restored after.
  EXPECT_GE(max_level_during, 1u) << "brownout never engaged";
  EXPECT_EQ(usage.brownout_level, 0u) << "brownout never fully recovered";
  EXPECT_GE(usage.requests_shed, reads_shed.load());

  // Deterministic convergence + final bit-exact sweep, as in every chaos
  // scenario: overload control must never have traded durability for
  // stability.
  std::vector<BlockId> all_blocks;
  for (BlockId id = 0; id < kPreloaded; ++id) all_blocks.push_back(id);
  {
    std::lock_guard<std::mutex> lock(written_mu);
    for (BlockId id : written) all_blocks.push_back(id);
  }
  const auto fully_redundant = [&](BlockId id) {
    const BlockInfo& info = store.state().GetBlock(id);
    if (info.locations.size() != config.ChunksPerBlock()) return false;
    for (const ChunkLocation& loc : info.locations) {
      if (!store.state().IsSiteAvailable(loc.site)) return false;
      if (!store.node(loc.site).HasValidChunk(id, loc.chunk)) return false;
    }
    return true;
  };
  bool converged = false;
  for (int round = 0; round < 64 && !converged; ++round) {
    store.ScrubOnce();
    for (SiteId j = 0; j < config.num_sites; ++j) {
      if (!store.state().IsSiteAvailable(j)) store.RepairSite(j);
    }
    converged = true;
    for (BlockId id : all_blocks) converged = converged && fully_redundant(id);
  }
  EXPECT_TRUE(converged) << "cluster never returned to full redundancy";

  for (BlockId id : all_blocks) {
    EXPECT_EQ(store.Get(id), MakeBlock(kBlockBytes, id)) << "block " << id;
  }
}

}  // namespace
}  // namespace ecstore
