// Golden decision pins for the simulator: a CRC32C over every decision a
// small seeded SimECStore run makes, for each of the six techniques and
// for one configuration with every optional tier switched on (cache +
// prefetch, promotion, adaptive δ, tail weight, overload control, a
// crash mid-run and a few puts). The DES is deterministic for a seed, so
// any change to planning, movement, timing or accounting moves a digest.
// The constants were recorded from the simulator they pin; a refactor
// that claims "no decision changes" must leave them as they are.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <tuple>
#include <type_traits>
#include <vector>

#include "common/crc32c.h"
#include "core/sim_store.h"
#include "workload/workload.h"

namespace ecstore {
namespace {

constexpr std::uint64_t kBlocks = 3000;
constexpr std::uint64_t kBlockBytes = 64 * 1024;
constexpr std::uint32_t kClients = 12;
constexpr SimTime kRunFor = 1500 * kMillisecond;
constexpr BlockId kFirstPutId = 1'000'000;

class Digest {
 public:
  template <typename T>
  void Fold(const T& value) {
    static_assert(std::has_unique_object_representations_v<T>);
    crc_ = Crc32c(&value, sizeof value, crc_);
  }
  std::uint32_t value() const { return crc_; }

 private:
  std::uint32_t crc_ = 0;
};

struct RunDigest {
  std::uint32_t decisions = 0;  // plan decisions + completed requests
  std::uint32_t usage = 0;      // final Usage() counters + site bytes
  std::uint64_t completed = 0;
};

ECStoreConfig BaseConfig(Technique t) {
  ECStoreConfig c = ECStoreConfig::ForTechnique(t);
  c.num_sites = 16;
  c.seed = 11;
  c.stats_report_interval = 500 * kMillisecond;
  c.co_access_window = 2000;
  c.mover_chunks_per_sec = 8.0;
  return c;
}

ECStoreConfig AllTiersConfig() {
  ECStoreConfig c = BaseConfig(Technique::kEcCMLb);
  c.slow_sites = {1, 6};
  c.cache_capacity_bytes = 8 * 1024 * 1024;
  c.cache_prefetch = true;
  c.promotion.budget_bytes = 4 * 1024 * 1024;
  c.promotion.promote_min_frequency = 0.002;
  c.promotion.demote_frequency = 0.0005;
  c.adaptive_delta = true;
  c.tail_weight = 1.0;
  c.latency_window = 256;
  c.overload.deadline_ms = 100.0;
  c.overload.admission = true;
  c.overload.breakers = true;
  c.overload.breaker_p99_ms = 15.0;
  c.overload.breaker_min_samples = 32;
  c.overload.brownout = true;
  c.detector_suspect_after = 300 * kMillisecond;
  c.detector_dead_after = 600 * kMillisecond;
  return c;
}

/// Runs a closed loop of YCSB-E scans (every `put_every`-th operation of
/// a client a Put of a new block when > 0) and folds every decision.
RunDigest RunDigested(const ECStoreConfig& config, std::uint32_t put_every,
                      SiteId crash_site) {
  SimECStore store(config);
  YcsbEWorkload::Params wp;
  wp.num_blocks = kBlocks;
  wp.block_bytes = kBlockBytes;
  wp.max_scan_length = 8;
  YcsbEWorkload workload(wp);
  workload.OnMeasurementStart();
  store.LoadBlocks(0, kBlocks, kBlockBytes);

  Digest decisions;
  store.control_plane().set_plan_observer(
      [&decisions](std::span<const BlockId> blocks,
                   const PlanDecision& decision) {
        for (BlockId b : blocks) decisions.Fold(b);
        decisions.Fold(static_cast<std::uint32_t>(decision.source));
        std::vector<std::tuple<BlockId, ChunkIndex, SiteId>> reads;
        for (const ChunkRead& r : decision.plan.reads) {
          reads.emplace_back(r.block, r.chunk, r.site);
        }
        std::sort(reads.begin(), reads.end());
        for (const auto& [block, chunk, site] : reads) {
          decisions.Fold(block);
          decisions.Fold(chunk);
          decisions.Fold(site);
        }
      });

  Rng rng(config.seed ^ 0x601DE2ULL);
  BlockId next_put = kFirstPutId;
  std::uint64_t completed = 0;
  std::vector<std::uint32_t> ops(kClients, 0);
  std::function<void(std::uint32_t)> issue = [&](std::uint32_t client) {
    auto& q = store.queue();
    if (q.Now() >= kRunFor) return;
    const SimTime issued = q.Now();
    const std::uint32_t op = ++ops[client];
    if (put_every > 0 && op % put_every == 0) {
      const BlockId id = next_put++;
      store.Put(id, kBlockBytes,
                [&, client, issued, id](const SimECStore::PutResult& r) {
                  decisions.Fold(id);
                  decisions.Fold(issued);
                  decisions.Fold(store.queue().Now());
                  decisions.Fold(static_cast<std::uint32_t>(r.ok));
                  issue(client);
                });
      return;
    }
    store.Get(workload.NextRequest(rng),
              [&, client, issued](const RequestBreakdown& r) {
                ++completed;
                decisions.Fold(issued);
                decisions.Fold(store.queue().Now());
                for (SimTime t : {r.metadata, r.planning, r.retrieval,
                                  r.decode, r.total}) {
                  decisions.Fold(t);
                }
                decisions.Fold(r.sites_accessed);
                decisions.Fold(r.cached_blocks);
                decisions.Fold(static_cast<std::uint32_t>(
                    r.ok | r.plan_cache_hit << 1 | r.shed << 2 |
                    r.deadline_hit << 3));
                issue(client);
              });
  };

  store.Start();
  if (crash_site != kInvalidSite) {
    store.queue().ScheduleAt(
        kRunFor / 2, [&store, crash_site] { store.CrashSite(crash_site); });
  }
  for (std::uint32_t c = 0; c < kClients; ++c) issue(c);
  store.queue().RunUntil(kRunFor + 500 * kMillisecond);

  Digest usage;
  const ControlPlaneUsage u = store.Usage();
  usage.Fold(u);
  for (std::uint64_t bytes : store.SiteBytesRead()) usage.Fold(bytes);
  usage.Fold(store.requests_completed());
  return {decisions.value(), usage.value(), completed};
}

struct Golden {
  const char* name;
  std::uint32_t decisions;
  std::uint32_t usage;
};

void ExpectGolden(const Golden& g, const RunDigest& d) {
  EXPECT_GT(d.completed, 100u) << g.name;
  EXPECT_EQ(d.decisions, g.decisions) << g.name;
  EXPECT_EQ(d.usage, g.usage) << g.name;
  if (d.decisions == g.decisions && d.usage == g.usage) return;
  // The row as it would be pinned, for reviewing a deliberate change.
  std::printf("    {\"%s\", 0x%08x, 0x%08x},  // %llu requests\n", g.name,
              d.decisions, d.usage,
              static_cast<unsigned long long>(d.completed));
}

TEST(SimGoldenTest, EveryTechniqueDecidesAsPinned) {
  const Golden kGolden[] = {
      {"R", 0xbeb9d4d8, 0x17ab9c01},
      {"EC", 0x409ed208, 0x9998edb9},
      {"EC+LB", 0x1a11e5e8, 0x9b30f5e3},
      {"EC+C", 0xdcabfafa, 0xa28f5dc5},
      {"EC+C+M", 0x2a3209c2, 0x53b135af},
      {"EC+C+M+LB", 0xace7a28a, 0xc11d5f3b},
  };
  for (const Golden& g : kGolden) {
    ExpectGolden(g, RunDigested(BaseConfig(ParseTechnique(g.name)), 0,
                                kInvalidSite));
  }
}

TEST(SimGoldenTest, AllTiersOnDecidesAsPinned) {
  ExpectGolden({"all-tiers", 0x0580530c, 0xe57c00ea},
               RunDigested(AllTiersConfig(), 16, 3));
}

}  // namespace
}  // namespace ecstore
