#pragma once

#include <map>
#include <string>
#include <vector>

#include "cvs/repository.h"
#include "util/result.h"

namespace tcvs {
namespace cvs {

/// \brief Client-side store of the last *verified* record seen per path —
/// the substrate of `tcvs`'s degraded read-only mode.
///
/// Every record enters the cache only after VerifyingClient accepted the
/// server's proof for it, so serving from the cache is serving
/// once-verified data: stale at worst, never unverified. When the server
/// stays unreachable past the retry budget, reads (cat / checkout / ls)
/// fall back to this cache instead of aborting; mutations still fail with
/// kUnavailable — degraded mode is strictly read-only.
class LocalCache {
 public:
  /// Records the verified state of `path` (checkout hit or applied commit).
  /// `record` must come from an endorsed server reply.
  void Put(const std::string& path, FileRecord record);

  /// Records a verified removal (or authenticated absence) of `path`.
  void Erase(const std::string& path);

  /// The last verified record, or nullptr if never seen.
  const FileRecord* Find(const std::string& path) const;

  /// (path, revision) of every cached file under `prefix`, sorted. Unlike
  /// an online ListDir this has no completeness proof — it reflects only
  /// what this client verified before the outage.
  std::vector<std::pair<std::string, uint64_t>> List(
      const std::string& prefix) const;

  size_t size() const { return files_.size(); }

  /// The file format is the magic followed by the records; nothing else.
  Bytes Serialize() const;
  // taint-exempt: local-origin — parses the client's own cache file, whose
  // contents were verified before they were written. Trailing bytes after
  // the records are Corruption.
  static Result<LocalCache> Deserialize(const Bytes& data);

 private:
  std::map<std::string, FileRecord> files_;
};

}  // namespace cvs
}  // namespace tcvs
