#include "core/tags.h"

namespace faros::core {

const char* tag_type_name(TagType t) {
  switch (t) {
    case TagType::kNetflow: return "NetFlow";
    case TagType::kProcess: return "Process";
    case TagType::kFile: return "File";
    case TagType::kExportTable: return "ExportTable";
  }
  return "?";
}

std::optional<ProvTag> ProvTag::unpack(const u8 in[3]) {
  if (in[0] < 1 || in[0] > 4) return std::nullopt;
  return ProvTag(static_cast<TagType>(in[0]),
                 static_cast<u16>(in[1] | (in[2] << 8)));
}

size_t NetflowMap::TupleHash::operator()(const FlowTuple& f) const {
  u64 k = hash_combine(f.src_ip, f.dst_ip);
  return hash_combine(k, (static_cast<u64>(f.src_port) << 16) | f.dst_port);
}

u16 NetflowMap::intern(const FlowTuple& flow) {
  auto it = lookup_.find(flow);
  if (it != lookup_.end()) return it->second;
  if (flows_.size() >= kTagOverflowIndex) {
    ++overflowed_;
    return kTagOverflowIndex;
  }
  u16 index = static_cast<u16>(flows_.size());
  flows_.push_back(flow);
  lookup_.emplace(flow, index);
  return index;
}

namespace {
// What get() returns for the overflow index.
const FlowTuple kOverflowFlow{};
const ProcessMap::Entry kOverflowProcess{0, 0, "<overflow>"};
const FileMap::Entry kOverflowFile{0, 0, "<overflow>"};
}  // namespace

const FlowTuple& NetflowMap::get(u16 index) const {
  return index < flows_.size() ? flows_[index] : kOverflowFlow;
}

u16 ProcessMap::intern(PAddr cr3, u32 pid, const std::string& name) {
  auto it = by_cr3_.find(cr3);
  // CR3 values are physical frame addresses and can be recycled by later
  // processes: only reuse the entry when the pid also matches. The stale
  // entry is kept (historical provenance still renders its name); the map
  // now points at the newest holder of the CR3.
  if (it != by_cr3_.end() && entries_[it->second].pid == pid) {
    return it->second;
  }
  if (entries_.size() >= kTagOverflowIndex) {
    ++overflowed_;
    return kTagOverflowIndex;
  }
  u16 index = static_cast<u16>(entries_.size());
  entries_.push_back(Entry{cr3, pid, name});
  by_cr3_[cr3] = index;
  return index;
}

const ProcessMap::Entry& ProcessMap::get(u16 index) const {
  return index < entries_.size() ? entries_[index] : kOverflowProcess;
}

std::optional<u16> ProcessMap::find_by_cr3(PAddr cr3) const {
  auto it = by_cr3_.find(cr3);
  if (it == by_cr3_.end()) return std::nullopt;
  return it->second;
}

u16 FileMap::intern(u32 file_id, u32 version, const std::string& name) {
  u64 key = (static_cast<u64>(file_id) << 32) | version;
  auto it = lookup_.find(key);
  if (it != lookup_.end()) return it->second;
  if (entries_.size() >= kTagOverflowIndex) {
    ++overflowed_;
    return kTagOverflowIndex;
  }
  u16 index = static_cast<u16>(entries_.size());
  entries_.push_back(Entry{file_id, version, name});
  lookup_[key] = index;
  return index;
}

const FileMap::Entry& FileMap::get(u16 index) const {
  return index < entries_.size() ? entries_[index] : kOverflowFile;
}

std::string TagMaps::describe(ProvTag tag) const {
  if (tag.index() == kTagOverflowIndex && tag.type() != TagType::kExportTable) {
    return std::string(tag_type_name(tag.type())) + ": <overflow>";
  }
  switch (tag.type()) {
    case TagType::kNetflow:
      return std::string(tag_type_name(tag.type())) + ": " +
             netflow.get(tag.index()).to_string();
    case TagType::kProcess:
      return std::string(tag_type_name(tag.type())) + ": " +
             process.get(tag.index()).name;
    case TagType::kFile: {
      const auto& e = file.get(tag.index());
      return std::string(tag_type_name(tag.type())) + ": " + e.name + " (v" +
             std::to_string(e.version) + ")";
    }
    case TagType::kExportTable: return tag_type_name(tag.type());
  }
  return "?";
}

}  // namespace faros::core
