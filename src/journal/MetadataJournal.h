//===----------------------------------------------------------------------===//
///
/// \file
/// The metadata write-ahead log writer. Pure host-file mechanics:
/// records are appended to an in-memory pending buffer (sequence
/// numbers assigned at append), then group-committed — framed, CRC'd
/// and flushed to the journal file in one write. Modelled-time
/// charging lives in the caller (journal/JournaledVolume.h), which
/// routes the commit through ReductionPipeline::journalWrite.
///
/// tornCommit() persists only a prefix of the pending bytes — the
/// deterministic torn-write the fault layer injects to exercise the
/// scanner's torn-tail discard.
///
//===----------------------------------------------------------------------===//

#ifndef PADRE_JOURNAL_METADATAJOURNAL_H
#define PADRE_JOURNAL_METADATAJOURNAL_H

#include "journal/JournalFormat.h"

#include <cstdio>
#include <string>

namespace padre {
namespace journal {

/// Append-only writer over one journal file.
class MetadataJournal {
public:
  MetadataJournal() = default;
  ~MetadataJournal();
  MetadataJournal(const MetadataJournal &) = delete;
  MetadataJournal &operator=(const MetadataJournal &) = delete;

  /// Creates/truncates the journal at \p Path with \p Header (base
  /// sequence included) and keeps it open for appending.
  fault::Status create(const std::string &Path, const JournalHeader &Header);

  /// Buffers \p Record (assigning the next sequence number) for the
  /// next commit. Returns the assigned sequence.
  std::uint64_t append(JournalRecord Record);

  /// What one commit persisted.
  struct CommitInfo {
    std::uint64_t FramedBytes = 0; ///< total bytes appended to the file
    std::uint64_t MetaBytes = 0;   ///< framed bytes minus chunk payloads
    std::size_t Records = 0;
  };

  /// Flushes every pending record to the file. No-op (all zeros) when
  /// nothing is pending.
  fault::Expected<CommitInfo> commit();

  /// Crash injection: persists only the first \p KeepBytes of the
  /// pending buffer — a torn write — and drops the rest. The file is
  /// left exactly as a power cut mid-commit would.
  fault::Status tornCommit(std::size_t KeepBytes);

  /// Restarts the log after a checkpoint: rewrites the file to just a
  /// header with \p BaseSeq (keeping geometry), discarding pending
  /// records. The next append is assigned \p BaseSeq.
  fault::Status truncate(std::uint64_t BaseSeq);

  /// Last sequence flushed by commit() (0 before the first commit).
  std::uint64_t committedSeq() const { return CommittedSeq; }
  std::size_t pendingRecords() const { return PendingRecords; }
  std::size_t pendingBytes() const { return Pending.size(); }
  const std::string &path() const { return Path; }

private:
  void close();

  std::string Path;
  std::FILE *File = nullptr;
  JournalHeader Header;
  std::uint64_t NextSeq = 1;
  std::uint64_t CommittedSeq = 0;
  ByteVector Pending;
  std::uint64_t PendingChunkPayload = 0;
  std::size_t PendingRecords = 0;
};

} // namespace journal
} // namespace padre

#endif // PADRE_JOURNAL_METADATAJOURNAL_H
