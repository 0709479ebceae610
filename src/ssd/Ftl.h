//===----------------------------------------------------------------------===//
///
/// \file
/// A page-level flash translation layer under the SSD model. The seed
/// model priced write amplification as an input constant
/// (SsdCosts::SequentialWaf / RandomWaf); this FTL makes it an
/// *output*: hosts append logical pages into log blocks, overwrites
/// and TRIMs invalidate old pages, and garbage collection relocates
/// whatever is still live out of victim blocks before erasing them —
/// so the NAND traffic (and therefore the endurance story the paper's
/// §1 motivation rests on) emerges from the actual overwrite pattern
/// instead of being assumed.
///
/// Design (log-structured / append-only logical space):
///   * A logical page is a monotonically allocated 64-bit id; the FTL
///     maps it to a physical page (block x page offset). Callers that
///     need overwrite semantics (the chunk store: one location =
///     one byte extent) hold an Extent of logical pages and release it
///     when the data dies — exactly how the destage stream behaves.
///   * Writes append into one open log block; full blocks close, and
///     a new block is taken from the free list (lowest erase count
///     first — dynamic wear leveling).
///   * When the free list drops to the reserve, greedy GC picks the
///     closed block with the fewest valid pages, relocates the
///     survivors to the log head and erases it. Over-provisioned
///     blocks (FtlConfig::OverprovisionPct) guarantee GC can always
///     make progress below the logical capacity.
///   * Static wear leveling: when the erase-count spread exceeds
///     WearDeltaLimit, the coldest closed block is migrated and
///     erased, bounding the spread.
///
/// The FTL is pure bookkeeping — deterministic, no RNG, no ledger
/// charges. SsdModel translates its counters (pages programmed,
/// relocations, erases) into modelled service time, NAND bytes and
/// `padre_ftl_*` metrics; see ssd/SsdModel.h.
///
//===----------------------------------------------------------------------===//

#ifndef PADRE_SSD_FTL_H
#define PADRE_SSD_FTL_H

#include <cstdint>
#include <deque>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

namespace padre {
namespace ssd {

/// FTL geometry and policy knobs. The defaults model a small device
/// slice; benches size Blocks so the workload's live set plus churn
/// fits under the logical capacity.
struct FtlConfig {
  /// NAND page size; equals the volume block size in every experiment.
  std::uint32_t PageBytes = 4096;
  /// Pages per erase block.
  std::uint32_t PagesPerBlock = 64;
  /// Physical erase blocks (raw capacity = Blocks x PagesPerBlock).
  std::uint32_t Blocks = 256;
  /// Share of raw capacity reserved for the FTL (invalid-page slack
  /// that keeps GC productive). Logical capacity is
  /// raw x (1 - OverprovisionPct/100).
  double OverprovisionPct = 7.0;
  /// GC runs whenever the free list is at or below this many blocks.
  /// Must leave room for one relocation destination (>= 2).
  std::uint32_t GcReserveBlocks = 2;
  /// Static wear leveling triggers when max-min erase count exceeds
  /// this; the bound the erase-balance tests assert.
  std::uint32_t WearDeltaLimit = 16;
  /// Erase budget per block (P/E cycles); the device-lifetime model.
  std::uint32_t EraseBudget = 3000;
  /// Circular window of metadata-stream pages (journal commits, bin
  /// log flushes): an append past the window invalidates the oldest
  /// metadata page, modelling log truncation reuse.
  std::uint64_t MetadataPages = 512;
};

/// True if \p Config is internally consistent (positive geometry,
/// over-provisioning below 90%, reserve leaves usable blocks).
bool isValidFtlConfig(const FtlConfig &Config);

/// Deterministic page-level FTL. Not thread-safe — the owner
/// (SsdModel) serializes access.
class Ftl {
public:
  explicit Ftl(const FtlConfig &Config);

  /// A run of logical pages holding one caller extent (a destaged
  /// chunk). Pages at the seams may be shared with the neighbouring
  /// extents of the same append stream; the FTL refcounts them.
  struct Extent {
    std::uint64_t FirstPage = 0;
    std::uint64_t LastPage = 0;
    bool Valid = false;
  };

  /// Appends a packed stream of caller extents (\p ChunkBytes byte
  /// sizes) to the log: chunks are laid head-to-tail, so neighbours
  /// share seam pages; the stream's final partial page is closed
  /// (program-once NAND — later streams start a fresh page). Appends
  /// one Extent per chunk to \p Out. Returns false (writing nothing)
  /// when the stream would exceed the logical capacity or GC cannot
  /// free a block.
  bool appendStream(std::span<const std::uint64_t> ChunkBytes,
                    std::vector<Extent> &Out);

  /// Appends ceil(Bytes / PageBytes) whole pages to the circular
  /// metadata stream, retiring the oldest window overflow. Returns
  /// false on capacity exhaustion.
  bool appendMetadata(std::uint64_t Bytes);

  /// Releases \p E: seam-page refcounts drop, and pages with no
  /// remaining extent are invalidated (TRIM). Safe on an invalid
  /// extent (no-op).
  void releaseExtent(const Extent &E);

  /// Pages needed to append \p TotalBytes as one fresh stream.
  std::uint64_t pagesForBytes(std::uint64_t TotalBytes) const;

  //===--------------------------------------------------------------===//
  // Measurement.
  //===--------------------------------------------------------------===//

  /// Monotonic program/erase counters (SsdModel charges service time
  /// and NAND bytes from the deltas around each host command).
  struct Counters {
    std::uint64_t HostPages = 0; ///< pages programmed for host data
    std::uint64_t GcPages = 0;   ///< pages relocated by GC / wear level
    std::uint64_t Erases = 0;
    std::uint64_t GcRuns = 0;
    std::uint64_t WearMigrations = 0;
  };
  const Counters &counters() const { return Stats; }

  /// Measured write amplification: (host + relocated) / host pages.
  /// 1.0 before any host program.
  double measuredWaf() const;

  /// Erase-count balance across all blocks.
  std::uint32_t minEraseCount() const;
  std::uint32_t maxEraseCount() const;
  std::uint32_t eraseSpread() const {
    return maxEraseCount() - minEraseCount();
  }

  /// Share of the device's total erase budget consumed, in [0, 1+).
  double lifetimeFractionUsed() const;

  std::uint64_t livePages() const { return L2P.size(); }
  std::uint64_t freeBlocks() const { return FreeList.size(); }
  std::uint64_t capacityPages() const { return LogicalCapacityPages; }
  const FtlConfig &config() const { return Config; }

  /// Full cross-check of the mapping invariants: forward and reverse
  /// maps agree, per-block valid counts match the reverse map, free
  /// blocks are empty, seam refcounts cover exactly the live pages,
  /// and the live set fits the logical capacity. Returns false and
  /// fills \p Why (when non-null) on the first violation — the "GC
  /// never loses a live page" oracle of the fault tests.
  bool checkInvariants(std::string *Why = nullptr) const;

private:
  static constexpr std::uint64_t NoPage = ~0ull;

  /// Physical page number helpers.
  std::uint32_t blockOf(std::uint64_t Ppn) const {
    return static_cast<std::uint32_t>(Ppn / Config.PagesPerBlock);
  }

  /// Takes the free block with the lowest (erase count, id) as the new
  /// open log block. Requires a non-empty free list.
  void openNextBlock();

  /// Allocates the next physical page of the open log block (no GC;
  /// the reserve guarantees space during relocation).
  std::uint64_t allocPpn();

  /// Programs logical page \p Lpn at the log head and installs the
  /// mapping. \p ForHost selects the host/GC counter.
  void programPage(std::uint64_t Lpn, bool ForHost);

  /// Unmaps \p Lpn and marks its physical page invalid.
  void invalidatePage(std::uint64_t Lpn);

  /// Drops one extent reference from \p Lpn, invalidating at zero.
  void releasePageRef(std::uint64_t Lpn);

  /// Runs GC until the free list exceeds the reserve. Returns false
  /// if no victim can make progress (device wedged — callers reject
  /// the write upfront, so this is defensive).
  bool ensureFree();

  /// Erases \p Block (must hold no valid pages) and runs the static
  /// wear-leveling check.
  void eraseBlock(std::uint32_t Block);

  /// Migrates and erases the coldest closed block when the erase
  /// spread exceeds WearDeltaLimit.
  void maybeWearLevel();

  /// Relocates every valid page out of \p Block to the log head.
  void relocateBlock(std::uint32_t Block);

  FtlConfig Config;
  std::uint64_t TotalPages = 0;
  std::uint64_t LogicalCapacityPages = 0;

  struct BlockState {
    std::uint32_t ValidPages = 0;
    std::uint32_t WritePtr = 0; ///< pages programmed since last erase
    std::uint32_t EraseCount = 0;
    bool Free = true;
  };
  std::vector<BlockState> BlocksState;
  std::vector<std::uint32_t> FreeList; ///< kept sorted by (erase, id)
  std::uint32_t OpenBlock = 0;
  bool HasOpenBlock = false;

  /// Logical page id -> physical page number.
  std::unordered_map<std::uint64_t, std::uint64_t> L2P;
  /// Physical page number -> logical id (NoPage when invalid/free).
  std::vector<std::uint64_t> P2L;
  /// Extents sharing each live logical page (seam refcounting).
  std::unordered_map<std::uint64_t, std::uint32_t> PageRefs;
  /// Next logical page id.
  std::uint64_t NextLpn = 0;

  /// Circular metadata stream window (oldest first).
  std::deque<std::uint64_t> MetaRing;

  Counters Stats;
  bool InWearLevel = false;
};

} // namespace ssd
} // namespace padre

#endif // PADRE_SSD_FTL_H
