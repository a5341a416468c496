// FAROS provenance tags (paper Section V-A, Figures 5 and 6).
//
// A prov_tag is 3 bytes: one byte of tag type and a 16-bit index into the
// per-type hash map that holds the tag's payload:
//   netflow -> the flow 4-tuple          (Netflow hash map)
//   process -> the CR3 value (+ name)    (Process hash map)
//   file    -> file name + access version (File hash map)
//   export-table -> no payload (index 0), exactly as in the paper, which
//   notes the current implementation "does not incorporate a hash map for
//   export table activity".
#pragma once

#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/flow.h"
#include "common/hash.h"
#include "common/types.h"

namespace faros::core {

enum class TagType : u8 {
  kNetflow = 1,
  kProcess = 2,
  kFile = 3,
  kExportTable = 4,
};

const char* tag_type_name(TagType t);

/// The packed 3-byte tag (paper Figure 6). Stored here as a value type;
/// pack()/unpack() produce the canonical byte layout.
class ProvTag {
 public:
  ProvTag() = default;
  ProvTag(TagType type, u16 index) : type_(type), index_(index) {}

  static ProvTag netflow(u16 index) { return {TagType::kNetflow, index}; }
  static ProvTag process(u16 index) { return {TagType::kProcess, index}; }
  static ProvTag file(u16 index) { return {TagType::kFile, index}; }
  static ProvTag export_table() { return {TagType::kExportTable, 0}; }

  TagType type() const { return type_; }
  u16 index() const { return index_; }

  /// Canonical 3-byte form: [type][index lo][index hi].
  void pack(u8 out[3]) const {
    out[0] = static_cast<u8>(type_);
    out[1] = static_cast<u8>(index_ & 0xff);
    out[2] = static_cast<u8>(index_ >> 8);
  }
  static std::optional<ProvTag> unpack(const u8 in[3]);

  /// Dense 32-bit key for hashing.
  u32 key() const {
    return (static_cast<u32>(type_) << 16) | index_;
  }

  bool operator==(const ProvTag&) const = default;

 private:
  TagType type_ = TagType::kNetflow;
  u16 index_ = 0;
};

/// Index every map hands out once its u16 index space is full: all later
/// entries share it (rendering as "<overflow>") instead of wrapping onto
/// index 0 and aliasing the first entry. Real entries use
/// [0, kTagOverflowIndex), and each map counts the interns it refused.
inline constexpr u16 kTagOverflowIndex = 0xffff;

/// Netflow hash map: index <-> flow tuple.
class NetflowMap {
 public:
  /// Returns the tag index for `flow`, interning it if new. The lookup is
  /// keyed on the exact tuple: a remote peer picks its own source address
  /// and port, so a hash of the tuple is not an identity.
  u16 intern(const FlowTuple& flow);
  /// The interned tuple; an all-zero tuple for the overflow index.
  const FlowTuple& get(u16 index) const;
  size_t size() const { return flows_.size(); }
  /// Interns refused because the index space was full.
  u64 overflowed() const { return overflowed_; }

 private:
  struct TupleHash {
    size_t operator()(const FlowTuple& f) const;
  };
  std::vector<FlowTuple> flows_;
  std::unordered_map<FlowTuple, u16, TupleHash> lookup_;
  u64 overflowed_ = 0;
};

/// Process hash map: index <-> CR3 (plus the image name for reports).
class ProcessMap {
 public:
  struct Entry {
    PAddr cr3 = 0;
    u32 pid = 0;
    std::string name;
  };

  u16 intern(PAddr cr3, u32 pid, const std::string& name);
  /// The interned entry; one named "<overflow>" for the overflow index.
  const Entry& get(u16 index) const;
  std::optional<u16> find_by_cr3(PAddr cr3) const;
  size_t size() const { return entries_.size(); }
  u64 overflowed() const { return overflowed_; }

 private:
  std::vector<Entry> entries_;
  std::unordered_map<u64, u16> by_cr3_;
  u64 overflowed_ = 0;
};

/// File hash map: index <-> (file id, name, access version). A new version
/// of the same file interns as a new tag, per the paper's file-tag design.
class FileMap {
 public:
  struct Entry {
    u32 file_id = 0;
    u32 version = 0;
    std::string name;
  };

  u16 intern(u32 file_id, u32 version, const std::string& name);
  /// The interned entry; one named "<overflow>" for the overflow index.
  const Entry& get(u16 index) const;
  size_t size() const { return entries_.size(); }
  u64 overflowed() const { return overflowed_; }

 private:
  std::vector<Entry> entries_;
  std::unordered_map<u64, u16> lookup_;
  u64 overflowed_ = 0;
};

/// All three maps plus rendering helpers.
struct TagMaps {
  NetflowMap netflow;
  ProcessMap process;
  FileMap file;

  /// "NetFlow: {...}" / "Process: notepad.exe" / "File: C:/x (v2)" /
  /// "ExportTable" — the building block of Table-II output.
  std::string describe(ProvTag tag) const;
};

}  // namespace faros::core
