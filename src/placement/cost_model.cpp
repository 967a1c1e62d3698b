#include "placement/cost_model.h"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <vector>

namespace ecstore {

CostParams CostParams::Homogeneous(std::size_t num_sites, double overhead_ms,
                                   double media_ms_per_byte_each) {
  CostParams p;
  p.site_overhead_ms.assign(num_sites, overhead_ms);
  p.media_ms_per_byte.assign(num_sites, media_ms_per_byte_each);
  return p;
}

DemandResult BuildDemands(const ClusterState& state,
                          std::span<const BlockId> blocks, std::uint32_t delta) {
  DemandResult result;
  result.demands.reserve(blocks.size());
  result.readable.reserve(blocks.size());
  // Collapse duplicate block ids: one demand per distinct block. Requests
  // are small, so a linear scan over a flat vector beats a node-based set
  // on this hot path (every MultiGet builds demands).
  std::vector<BlockId> seen;
  seen.reserve(blocks.size());
  BlockInfo info;
  for (BlockId id : blocks) {
    if (std::find(seen.begin(), seen.end(), id) != seen.end()) {
      result.readable.push_back(true);  // Covered by the first occurrence.
      continue;
    }
    seen.push_back(id);
    // Copy the catalog entry under its stripe lock, then filter by the
    // atomic availability flags: safe against concurrent RemoveBlock and
    // one lock round instead of two.
    if (!state.ReadBlock(id, &info)) {
      throw std::out_of_range("GetBlock: unknown block");
    }
    BlockDemand d;
    d.block = id;
    d.chunk_bytes = info.chunk_bytes;
    d.candidates.reserve(info.locations.size());
    for (const ChunkLocation& loc : info.locations) {
      if (state.IsSiteAvailable(loc.site)) d.candidates.push_back(loc);
    }
    if (!SpecAnyKDecodes(info.codec)) {
      // Non-MDS family (LRC): restrict normal reads to the chunks from
      // which any k decode — data + global parities; the local parities
      // exist for repair. When failures leave fewer than k of those, keep
      // every survivor so the degraded path can try pattern-dependent
      // decoding with the locals.
      std::vector<ChunkLocation> preferred;
      preferred.reserve(d.candidates.size());
      for (const ChunkLocation& loc : d.candidates) {
        if (IsPlanReadCandidate(info.codec, loc.chunk)) {
          preferred.push_back(loc);
        }
      }
      if (preferred.size() >= info.k) d.candidates = std::move(preferred);
    }
    const auto available = static_cast<std::uint32_t>(d.candidates.size());
    if (available < info.k) {
      result.readable.push_back(false);
      continue;  // Unreadable: no demand emitted.
    }
    d.needed = std::min(info.k + delta, available);
    result.demands.push_back(std::move(d));
    result.readable.push_back(true);
  }
  return result;
}

double PlanCost(std::span<const ChunkRead> reads,
                std::span<const BlockDemand> demands, const CostParams& params) {
  // Accessed sites, deduplicated below. The stack buffer covers the
  // plans the chunk mover prices by the million; larger plans spill.
  std::array<SiteId, 64> inline_sites;
  std::vector<SiteId> spilled;
  std::span<SiteId> accessed = inline_sites;
  if (reads.size() > inline_sites.size()) {
    spilled.resize(reads.size());
    accessed = spilled;
  }
  // Chunk-retrieval term: m_j * z_i per selected chunk.
  double cost = 0;
  std::size_t num_accessed = 0;
  for (const ChunkRead& read : reads) {
    const auto demand = std::find_if(
        demands.begin(), demands.end(),
        [&](const BlockDemand& d) { return d.block == read.block; });
    if (demand == demands.end()) {
      throw std::invalid_argument("PlanCost: read for a block not in the demands");
    }
    cost += params.media_ms_per_byte[read.site] *
            static_cast<double>(demand->chunk_bytes);
    accessed[num_accessed++] = read.site;
  }
  // Site-activation term: o_j once per accessed site, in ascending site
  // order so the sum is reproducible bit for bit.
  const auto used = accessed.first(num_accessed);
  std::sort(used.begin(), used.end());
  const auto last = std::unique(used.begin(), used.end());
  for (auto site = used.begin(); site != last; ++site) {
    cost += params.site_overhead_ms[*site];
  }
  return cost;
}

}  // namespace ecstore
