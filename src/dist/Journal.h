//===--- Journal.h - Append-only campaign journal ---------------*- C++ -*-===//
//
// Part of the Télétchat reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The durability layer of the work server: an append-only file of
/// framed records ([u32 len][u8 tag][payload], the wire framing) that
/// captures everything needed to finish a crashed campaign --
///
///  - one *header* record: magic + version, the campaign's source spec
///    (an explicit corpus, or the generator spec a streamed campaign
///    runs over) and the config table;
///  - one *result* record per accepted unit result, appended and
///    flushed the moment the server merges it.
///
/// Restarting with --resume replays the journal: the source spec
/// rebuilds the identical unit stream, replayed results merge without
/// re-execution, and only incomplete units are served again -- so the
/// final campaign JSON is byte-identical to an uninterrupted run. A
/// partial tail record (the server died mid-append) is discarded on
/// replay, not fatal; everything else that fails to decode is, because
/// resuming over a corrupt journal would silently change the merge.
///
/// Payloads reuse the structural serialization of Serialize.h, so the
/// journal inherits its exactness (bit-identical results) and its
/// hostile-input posture (every decode is bounds-checked and versioned).
///
//===----------------------------------------------------------------------===//

#ifndef TELECHAT_DIST_JOURNAL_H
#define TELECHAT_DIST_JOURNAL_H

#include "core/Campaign.h"
#include "dist/Wire.h"

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace telechat {

/// "TCJL", little-endian, leading every header record: a journal is not
/// a wire stream, and neither parses as the other.
constexpr uint32_t JournalMagic = 0x4C4A4354;

/// Bumped on any record layout change; readJournal refuses other
/// versions (a resumed campaign must replay exactly what the crashed
/// server wrote, so "best effort" cross-version replay would be a bug).
constexpr uint16_t JournalVersion = 7;

/// Record tags.
enum class JournalRec : uint8_t {
  Header = 1, ///< magic, version, source spec, config table; first record.
  Result = 2, ///< u64 unit id + encodeTelechatResult; one per result.
};

/// What a campaign runs over -- the header record's payload. Either an
/// explicit corpus (units materialised up front) or a generator spec
/// (units streamed off seeded diy generation crossed with the config
/// table). Both rebuild the identical unit stream on resume.
struct CampaignSourceSpec {
  enum class Kind : uint8_t { Corpus = 0, Generator = 1 };
  Kind K = Kind::Corpus;
  std::vector<CampaignUnit> Units; ///< Kind::Corpus.
  RandomGenOptions Gen;            ///< Kind::Generator.
  uint32_t NumConfigs = 1;         ///< Generator crossing width.

  /// Builds the unit source this spec describes (corpus units copied;
  /// the spec stays usable).
  std::unique_ptr<UnitSource> makeSource() const;
  /// Like makeSource, but moves the corpus units out of the spec: what
  /// a server that will never look at the spec again should call, so a
  /// large materialised corpus is not held twice.
  std::unique_ptr<UnitSource> takeSource();
};

void encodeCampaignSourceSpec(WireBuffer &B, const CampaignSourceSpec &S);
bool decodeCampaignSourceSpec(WireCursor &C, CampaignSourceSpec &S);

/// Append-only journal writer. Every append is flushed to the OS before
/// it returns: a killed server process loses at most the record being
/// written, and that partial tail is discarded on replay.
class JournalWriter {
public:
  JournalWriter() = default;
  ~JournalWriter();
  JournalWriter(const JournalWriter &) = delete;
  JournalWriter &operator=(const JournalWriter &) = delete;

  /// Creates (truncating) \p Path and writes the header record. Empty
  /// string on success, error text otherwise.
  std::string create(const std::string &Path, const CampaignSourceSpec &Spec,
                     const std::vector<CampaignConfig> &Configs);

  /// Reopens an existing journal for appending (resume: replay it via
  /// readJournal first, then append new results behind the old ones).
  /// \p TruncateTo, when not ~0, truncates the file to that many bytes
  /// first -- pass JournalContents::ValidBytes so a partial tail record
  /// (killed mid-append) is cut off before new records land behind it;
  /// appending after garbage would corrupt the record framing for the
  /// *next* resume.
  std::string openAppend(const std::string &Path,
                         uint64_t TruncateTo = ~0ull);

  /// Appends one accepted result. False when the write or flush failed
  /// (disk full, journal on a dead mount); the caller should stop
  /// journaling and surface the fault.
  bool appendResult(uint64_t Id, const TelechatResult &R);

  bool isOpen() const { return Out != nullptr; }
  void close();

private:
  bool writeRecord(JournalRec Tag, const WireBuffer &Payload);
  FILE *Out = nullptr;
};

/// Everything a journal holds.
struct JournalContents {
  CampaignSourceSpec Spec;
  std::vector<CampaignConfig> Configs;
  /// Accepted results in append order. Duplicate ids appear only in
  /// hostile journals; the first occurrence wins, matching the live
  /// server's first-result-wins merge.
  std::vector<std::pair<uint64_t, TelechatResult>> Results;
  /// The file ended inside a record (killed mid-append); the partial
  /// tail was discarded.
  bool TruncatedTail = false;
  /// Bytes of complete records: what openAppend must truncate to before
  /// appending, so a discarded tail cannot shift the record framing.
  uint64_t ValidBytes = 0;
};

/// Parses a journal. Hard errors -- bad magic or version, a missing or
/// malformed header, oversized record lengths, complete records that
/// fail to decode -- fail the read; only a partial tail record is
/// tolerated (JournalContents::TruncatedTail).
ErrorOr<JournalContents> readJournal(const std::string &Path);

/// What compactJournal rewrote.
struct CompactStats {
  uint64_t BytesBefore = 0; ///< File size before (tail garbage included).
  uint64_t BytesAfter = 0;
  uint64_t Results = 0; ///< Result records in the compacted file.
};

/// Rewrites \p Path in place as one header plus its merged result prefix
/// in unit-id order: duplicate ids collapse to their first occurrence
/// (the live merge's first-result-wins rule), a partial tail record is
/// dropped, and append order is normalised to corpus order. Replaying
/// the compacted journal is byte-identical to replaying the original --
/// compaction changes the file, never the merge. Crash-safe: the
/// compacted image is written beside \p Path and renamed over it, so a
/// kill mid-compaction leaves the original intact.
ErrorOr<CompactStats> compactJournal(const std::string &Path);

} // namespace telechat

#endif // TELECHAT_DIST_JOURNAL_H
