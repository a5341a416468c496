// Tags (3-byte prov_tag, per-type hash maps) and interned provenance lists.
#include <gtest/gtest.h>

#include "common/hash.h"
#include "common/rng.h"
#include "common/strings.h"
#include "core/provenance.h"
#include "core/shadow.h"

namespace faros::core {
namespace {

TEST(ProvTag, PackUnpackRoundTripAllTypes) {
  for (TagType type : {TagType::kNetflow, TagType::kProcess, TagType::kFile,
                       TagType::kExportTable}) {
    for (u16 index : {u16{0}, u16{1}, u16{255}, u16{256}, u16{0xffff}}) {
      ProvTag tag(type, index);
      u8 packed[3];
      tag.pack(packed);
      EXPECT_EQ(packed[0], static_cast<u8>(type));
      auto back = ProvTag::unpack(packed);
      ASSERT_TRUE(back.has_value());
      EXPECT_EQ(*back, tag);
    }
  }
}

TEST(ProvTag, UnpackRejectsBadType) {
  u8 bad1[3] = {0, 0, 0};
  u8 bad2[3] = {5, 0, 0};
  EXPECT_FALSE(ProvTag::unpack(bad1).has_value());
  EXPECT_FALSE(ProvTag::unpack(bad2).has_value());
}

TEST(ProvTag, KeysAreDistinctAcrossTypes) {
  EXPECT_NE(ProvTag::netflow(1).key(), ProvTag::process(1).key());
  EXPECT_NE(ProvTag::file(1).key(), ProvTag::process(1).key());
  EXPECT_NE(ProvTag::netflow(1).key(), ProvTag::netflow(2).key());
}

TEST(NetflowMap, InternIsIdempotentAndOrdered) {
  NetflowMap map;
  FlowTuple a{1, 2, 3, 4};
  FlowTuple b{5, 6, 7, 8};
  u16 ia = map.intern(a);
  u16 ib = map.intern(b);
  EXPECT_EQ(map.intern(a), ia);
  EXPECT_NE(ia, ib);
  EXPECT_EQ(map.get(ia), a);
  EXPECT_EQ(map.get(ib), b);
  EXPECT_EQ(map.size(), 2u);
}

TEST(NetflowMap, HashCollidingFlowsGetDistinctTags) {
  // Two attacker-chosen endpoints whose tuples collide under the
  // boost-style 64-bit hash_combine key (0x81f7f3321dc9a267). A lookup
  // keyed on that hash alone would hand both flows one netflow tag.
  FlowTuple a{parse_ipv4("10.0.13.31"), 49152, parse_ipv4("10.0.0.2"), 4444};
  FlowTuple b{parse_ipv4("10.0.13.15"), 53246, parse_ipv4("10.0.0.2"), 4444};
  ASSERT_FALSE(a == b);
  auto key = [](const FlowTuple& f) {
    u64 k = hash_combine(f.src_ip, f.dst_ip);
    return hash_combine(k, (static_cast<u64>(f.src_port) << 16) | f.dst_port);
  };
  ASSERT_EQ(key(a), key(b));
  ASSERT_EQ(key(a), 0x81f7f3321dc9a267ull);

  NetflowMap map;
  u16 ia = map.intern(a);
  u16 ib = map.intern(b);
  EXPECT_NE(ia, ib);
  EXPECT_EQ(map.get(ia), a);
  EXPECT_EQ(map.get(ib), b);
  EXPECT_EQ(map.intern(b), ib);
  EXPECT_EQ(map.size(), 2u);
}

TEST(NetflowMap, FullIndexSpaceSaturatesInsteadOfWrapping) {
  // 65,537 distinct flows: one more than a u16 index can name. The map
  // must never wrap an entry onto index 0 (aliasing the first flow);
  // entries past the space share the reserved overflow index, counted.
  NetflowMap map;
  const FlowTuple first{1, 1, 2, 2};
  EXPECT_EQ(map.intern(first), 0u);
  FlowTuple last;
  for (u32 i = 1; i < 65537; ++i) {
    last = FlowTuple{0x0a000000u + i, static_cast<u16>(i), 2, 2};
    u16 idx = map.intern(last);
    if (i < kTagOverflowIndex) {
      EXPECT_EQ(idx, i);
    } else {
      EXPECT_EQ(idx, kTagOverflowIndex);
    }
  }
  EXPECT_EQ(map.size(), static_cast<size_t>(kTagOverflowIndex));
  EXPECT_EQ(map.overflowed(), 2u);
  // The 65,537th flow's tag must not resolve to flow 0's tuple, and flow 0
  // keeps its own.
  EXPECT_NE(map.get(map.intern(last)), first);
  EXPECT_EQ(map.get(0), first);
  EXPECT_EQ(map.intern(first), 0u);

  TagMaps maps;
  maps.netflow = map;
  EXPECT_EQ(maps.describe(ProvTag::netflow(kTagOverflowIndex)),
            "NetFlow: <overflow>");
  EXPECT_NE(maps.describe(ProvTag::netflow(0)).find("0.0.0.1"),
            std::string::npos);
}

TEST(TagMaps, ProcessAndFileMapsSaturateOntoOverflowIndex) {
  ProcessMap procs;
  FileMap files;
  for (u32 i = 0; i < kTagOverflowIndex; ++i) {
    ASSERT_EQ(procs.intern(0x1000 + static_cast<u64>(i) * 0x1000, i, "p"), i);
    ASSERT_EQ(files.intern(i, 1, "f"), i);
  }
  EXPECT_EQ(procs.intern(0x7fff00000000ull, 99999, "late.exe"), kTagOverflowIndex);
  EXPECT_EQ(files.intern(99999, 1, "late.txt"), kTagOverflowIndex);
  EXPECT_EQ(procs.overflowed(), 1u);
  EXPECT_EQ(files.overflowed(), 1u);
  EXPECT_EQ(procs.get(0).pid, 0u);
  EXPECT_EQ(procs.get(kTagOverflowIndex).name, "<overflow>");
  EXPECT_FALSE(procs.find_by_cr3(0x7fff00000000ull).has_value());
  EXPECT_EQ(files.get(kTagOverflowIndex).name, "<overflow>");

  TagMaps maps;
  maps.process = procs;
  maps.file = files;
  EXPECT_EQ(maps.describe(ProvTag::process(kTagOverflowIndex)),
            "Process: <overflow>");
  EXPECT_EQ(maps.describe(ProvTag::file(kTagOverflowIndex)),
            "File: <overflow>");
}

TEST(ProcessMap, ReusedCr3GetsFreshEntryForNewPid) {
  ProcessMap map;
  u16 a = map.intern(0x1000, 100, "a.exe");
  EXPECT_EQ(map.intern(0x1000, 100, "a.exe"), a);
  // The frame backing CR3 0x1000 got recycled into a new process.
  u16 b = map.intern(0x1000, 200, "b.exe");
  EXPECT_NE(a, b);
  EXPECT_EQ(map.get(a).name, "a.exe");   // history preserved
  EXPECT_EQ(map.get(b).name, "b.exe");
  EXPECT_EQ(map.find_by_cr3(0x1000).value_or(999), b);  // latest wins
}

TEST(FileMap, VersionsInternSeparately) {
  FileMap map;
  u16 v1 = map.intern(7, 1, "C:/x");
  u16 v2 = map.intern(7, 2, "C:/x");
  EXPECT_NE(v1, v2);
  EXPECT_EQ(map.intern(7, 1, "C:/x"), v1);
  EXPECT_EQ(map.get(v2).version, 2u);
}

TEST(TagMaps, DescribeRendersPaperStyle) {
  TagMaps maps;
  u16 nf = maps.netflow.intern(
      FlowTuple{0xa9fe1aa1, 4444, 0xa9fe39a8, 49162});
  u16 proc = maps.process.intern(0x2000, 1, "inject_client.exe");
  u16 file = maps.file.intern(1, 2, "C:/x.exe");
  EXPECT_EQ(maps.describe(ProvTag::netflow(nf)),
            "NetFlow: {src ip,port: 169.254.26.161:4444, "
            "dest ip,port: 169.254.57.168:49162}");
  EXPECT_EQ(maps.describe(ProvTag::process(proc)),
            "Process: inject_client.exe");
  EXPECT_EQ(maps.describe(ProvTag::file(file)), "File: C:/x.exe (v2)");
  EXPECT_EQ(maps.describe(ProvTag::export_table()), "ExportTable");
}

// ---------------------------------------------------------------------------

TEST(ProvStore, EmptyListIsIdZero) {
  ProvStore store;
  EXPECT_EQ(store.intern({}), kEmptyProv);
  EXPECT_TRUE(store.get(kEmptyProv).empty());
  EXPECT_FALSE(store.contains_type(kEmptyProv, TagType::kNetflow));
}

TEST(ProvStore, InternDedupesAndIsCanonical) {
  ProvStore store;
  auto a = store.intern({ProvTag::netflow(1), ProvTag::process(2)});
  auto b = store.intern(
      {ProvTag::netflow(1), ProvTag::process(2), ProvTag::netflow(1)});
  EXPECT_EQ(a, b);  // duplicate tag collapses
  auto c = store.intern({ProvTag::process(2), ProvTag::netflow(1)});
  EXPECT_NE(a, c);  // order is chronology: different lists
}

TEST(ProvStore, AppendPreservesOrderAndIsIdempotent) {
  ProvStore store;
  auto id = store.intern({ProvTag::netflow(0)});
  auto id2 = store.append(id, ProvTag::process(1));
  auto id3 = store.append(id2, ProvTag::process(2));
  EXPECT_EQ(store.append(id3, ProvTag::process(1)), id3);  // already there
  const auto& tags = store.get(id3);
  ASSERT_EQ(tags.size(), 3u);
  EXPECT_EQ(tags[0], ProvTag::netflow(0));
  EXPECT_EQ(tags[1], ProvTag::process(1));
  EXPECT_EQ(tags[2], ProvTag::process(2));
}

TEST(ProvStore, MergeIsUnionPreservingLeftOrder) {
  ProvStore store;
  auto a = store.intern({ProvTag::netflow(0), ProvTag::process(1)});
  auto b = store.intern({ProvTag::process(1), ProvTag::file(3)});
  auto m = store.merge(a, b);
  const auto& tags = store.get(m);
  ASSERT_EQ(tags.size(), 3u);
  EXPECT_EQ(tags[0], ProvTag::netflow(0));
  EXPECT_EQ(tags[1], ProvTag::process(1));
  EXPECT_EQ(tags[2], ProvTag::file(3));
  // Identities.
  EXPECT_EQ(store.merge(a, kEmptyProv), a);
  EXPECT_EQ(store.merge(kEmptyProv, b), b);
  EXPECT_EQ(store.merge(a, a), a);
}

TEST(ProvStore, TypeMaskAndProcessCount) {
  ProvStore store;
  auto id = store.intern({ProvTag::netflow(0), ProvTag::process(1),
                          ProvTag::process(2), ProvTag::export_table()});
  EXPECT_TRUE(store.contains_type(id, TagType::kNetflow));
  EXPECT_TRUE(store.contains_type(id, TagType::kProcess));
  EXPECT_TRUE(store.contains_type(id, TagType::kExportTable));
  EXPECT_FALSE(store.contains_type(id, TagType::kFile));
  EXPECT_EQ(store.process_count(id), 2u);
  EXPECT_EQ(store.process_count(kEmptyProv), 0u);
  EXPECT_TRUE(store.contains(id, ProvTag::process(2)));
  EXPECT_FALSE(store.contains(id, ProvTag::process(9)));
}

TEST(ProvStore, CapDropsNewestKeepsOrigin) {
  ProvStore store(/*cap=*/4);
  auto id = store.intern({ProvTag::netflow(0)});
  for (u16 i = 0; i < 10; ++i) id = store.append(id, ProvTag::process(i));
  const auto& tags = store.get(id);
  EXPECT_EQ(tags.size(), 4u);
  EXPECT_EQ(tags[0], ProvTag::netflow(0));  // origin survives
}

TEST(ProvStore, MergeAppendPropertyAgainstReferenceSets) {
  // Property: merge/append behave like ordered-set union/insert.
  ProvStore store;
  Rng rng(42);
  for (int iter = 0; iter < 200; ++iter) {
    std::vector<ProvTag> av, bv;
    for (u32 i = 0; i < rng.below(6); ++i) {
      av.push_back(ProvTag(static_cast<TagType>(1 + rng.below(4)),
                           static_cast<u16>(rng.below(4))));
    }
    for (u32 i = 0; i < rng.below(6); ++i) {
      bv.push_back(ProvTag(static_cast<TagType>(1 + rng.below(4)),
                           static_cast<u16>(rng.below(4))));
    }
    auto a = store.intern(av);
    auto b = store.intern(bv);
    auto m = store.merge(a, b);
    // Reference: a's canonical list then b's new tags.
    std::vector<ProvTag> expect = store.get(a);
    for (const ProvTag& t : store.get(b)) {
      if (std::find(expect.begin(), expect.end(), t) == expect.end()) {
        expect.push_back(t);
      }
    }
    EXPECT_EQ(store.get(m), expect);
    // Merge is memoized: same call yields the same id.
    EXPECT_EQ(store.merge(a, b), m);
  }
}

// ---------------------------------------------------------------------------

TEST(ShadowMemory, SetGetClear) {
  ShadowMemory shadow;
  EXPECT_EQ(shadow.get(100), kEmptyProv);
  shadow.set(100, 5);
  shadow.set(101, 6);
  EXPECT_EQ(shadow.get(100), 5u);
  EXPECT_EQ(shadow.tainted_bytes(), 2u);
  shadow.set(100, kEmptyProv);  // erase
  EXPECT_EQ(shadow.get(100), kEmptyProv);
  EXPECT_EQ(shadow.tainted_bytes(), 1u);
  shadow.clear_range(90, 20);
  EXPECT_EQ(shadow.tainted_bytes(), 0u);
}

TEST(ShadowRegisters, ByteGranularityAndUnion) {
  ProvStore store;
  ShadowRegisters regs;
  auto a = store.intern({ProvTag::netflow(0)});
  auto b = store.intern({ProvTag::file(1)});
  regs.set(3, 0, a);
  regs.set(3, 2, b);
  EXPECT_TRUE(regs.reg_tainted(3));
  EXPECT_FALSE(regs.reg_tainted(4));
  auto u = regs.reg_union(3, store);
  EXPECT_TRUE(store.contains_type(u, TagType::kNetflow));
  EXPECT_TRUE(store.contains_type(u, TagType::kFile));
  regs.clear_reg(3);
  EXPECT_FALSE(regs.reg_tainted(3));
  regs.set_all(5, a);
  EXPECT_EQ(regs.get(5, 3), a);
}

TEST(FileShadow, PerByteKeyedByFileAndOffset) {
  FileShadow fs;
  fs.set(1, 0, 7);
  fs.set(1, 1, 8);
  fs.set(2, 0, 9);
  EXPECT_EQ(fs.get(1, 0), 7u);
  EXPECT_EQ(fs.get(1, 1), 8u);
  EXPECT_EQ(fs.get(2, 0), 9u);
  EXPECT_EQ(fs.get(2, 1), kEmptyProv);
  fs.set(1, 0, kEmptyProv);
  EXPECT_EQ(fs.get(1, 0), kEmptyProv);
  EXPECT_EQ(fs.tainted_bytes(), 2u);
}

}  // namespace
}  // namespace faros::core
