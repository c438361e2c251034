#include "cvs/cache.h"

#include "util/serde.h"

namespace tcvs {
namespace cvs {

namespace {
constexpr char kCacheMagic[] = "tcvs-cache-v1";
}  // namespace

void LocalCache::Put(const std::string& path, FileRecord record) {
  files_[path] = std::move(record);
}

void LocalCache::Erase(const std::string& path) { files_.erase(path); }

const FileRecord* LocalCache::Find(const std::string& path) const {
  auto it = files_.find(path);
  return it == files_.end() ? nullptr : &it->second;
}

std::vector<std::pair<std::string, uint64_t>> LocalCache::List(
    const std::string& prefix) const {
  std::vector<std::pair<std::string, uint64_t>> out;
  for (auto it = files_.lower_bound(prefix); it != files_.end(); ++it) {
    if (it->first.compare(0, prefix.size(), prefix) != 0) break;
    out.emplace_back(it->first, it->second.revision);
  }
  return out;
}

Bytes LocalCache::Serialize() const {
  util::Writer w;
  w.PutString(kCacheMagic);
  w.PutU64(files_.size());
  for (const auto& [path, record] : files_) {
    w.PutString(path);
    w.PutU64(record.revision);
    w.PutString(record.content);
  }
  return w.Take();
}

Result<LocalCache> LocalCache::Deserialize(const Bytes& data) {
  util::Reader r(data);
  TCVS_ASSIGN_OR_RETURN(std::string magic, r.GetString());
  if (magic != kCacheMagic) {
    return Status::Corruption("bad local-cache magic");
  }
  TCVS_ASSIGN_OR_RETURN(uint64_t n, r.GetU64());
  LocalCache cache;
  for (uint64_t i = 0; i < n; ++i) {
    TCVS_ASSIGN_OR_RETURN(std::string path, r.GetString());
    FileRecord record;
    TCVS_ASSIGN_OR_RETURN(record.revision, r.GetU64());
    TCVS_ASSIGN_OR_RETURN(record.content, r.GetString());
    cache.files_[std::move(path)] = std::move(record);
  }
  if (!r.AtEnd()) {
    return Status::Corruption("trailing bytes after local-cache records");
  }
  return cache;
}

}  // namespace cvs
}  // namespace tcvs
