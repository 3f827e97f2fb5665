// Delta persistence: hash-chained generation increments.
//
// A full snapshot (store/gen-NNNNNN.fa) is expensive to commit, so
// between snapshots each applied batch is appended as a small increment
// file in the same store directory:
//
//   gen-000042.fa            full snapshot image (fa::store)
//   gen-000042.d-000000.fad  first batch applied on top of it
//   gen-000042.d-000001.fad  second batch
//
// Every increment names its base generation and carries the CRC-32 of
// its predecessor — increment 0 links to the whole-file CRC of the base
// snapshot image, increment k to the whole-file CRC of increment k-1 —
// so cold start can prove it is replaying exactly the chain that was
// written, in order, on top of exactly the snapshot it has. Replay
// stops at the first broken link: a torn tail truncates (the serving
// path falls back to the last provably consistent state), it never
// poisons.
//
// Increments commit atomically (tmp + fsync + rename + dir fsync, the
// store's own protocol); a crash mid-append leaves ignorable .tmp
// debris.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "delta/event.hpp"
#include "store/store.hpp"

namespace fa::delta {

class DeltaLog {
 public:
  DeltaLog() = default;

  // Opens the increment chain for `base_gen` in `dir`. `base_crc` is
  // the base snapshot's whole-file CRC as the manifest records it; pass
  // 0 (a scan() manifest) to have it computed from the image file —
  // lazily: only once increment 0 exists or the first append needs the
  // link, so opening an empty chain reads no image bytes.
  // Scans existing increments to find the chain tail; unreachable
  // files past a broken link are deleted (they can never replay).
  static fault::Result<DeltaLog> open(const store::StoreDir& dir,
                                      std::uint64_t base_gen,
                                      std::uint32_t base_crc);

  // Durably appends one applied batch as the next increment; returns
  // its ordinal.
  fault::Result<std::uint64_t> append(std::span<const FeedEvent> batch);

  struct Replay {
    // Valid batches in append order.
    std::vector<std::vector<FeedEvent>> batches;
    // Increment files dropped at the first broken link (torn tail).
    std::size_t truncated = 0;
  };
  // Re-reads and verifies the chain from disk (cold start). The base
  // link is re-derived from the image bytes (CRC over the mapping) only
  // when increment 0 exists: an empty chain reads nothing of the image.
  Replay replay() const;

  std::uint64_t base_generation() const { return base_gen_; }
  std::uint64_t next_ordinal() const { return next_ordinal_; }

  // Deletes increments belonging to any base generation other than
  // `keep_base` (after a new full snapshot commits, older chains are
  // superseded — the snapshot already contains their effects).
  static void prune_stale(const store::StoreDir& dir,
                          std::uint64_t keep_base);

 private:
  DeltaLog(const store::StoreDir& dir, std::uint64_t base_gen)
      : dir_path_(dir.path()), base_gen_(base_gen) {}

  std::string base_image_path() const;
  // Derives chain_crc_ from the base image (the link of increment 0).
  fault::Status link_base();

  std::string dir_path_;
  std::uint64_t base_gen_ = 0;
  std::uint64_t next_ordinal_ = 0;
  std::uint32_t chain_crc_ = 0;  // whole-file CRC of the chain tail
  bool linked_ = false;          // chain_crc_ is known
};

// Increment filename ("gen-000042.d-000007.fad").
std::string increment_filename(std::uint64_t base_gen, std::uint64_t ordinal);

}  // namespace fa::delta
