#pragma once

// Shared golden-vector plumbing for the regression suites
// (test_golden_vectors, test_scenario, test_waveform_golden). A golden file
// is flat JSON:
//   {"name": "...", "hash": "<16 hex>",
//    "scalars": {"k": "hex:<16 hex> dec:<%.17g>", ...}}
// The hash is FNV-1a over the bit patterns of a computed double series, so
// any bit-level drift in a pinned pipeline fails loudly. The decimal in
// each scalar is for humans; comparisons use the hex bit pattern only.
//
// A vector can instead pin several named series, one digest each
// ("<name>_hash" in place of "hash"), so that a change which may move only
// some outputs — e.g. the floats of a run but not its decisions — shows in
// the diff which digests moved and which held.
//
// Regenerating after an intentional change: run the owning test binary
// with --regen (parsed by golden_test_main) and commit the rewritten
// files alongside the change that caused them.

#include <gtest/gtest.h>

#include <bit>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

namespace ecocap::golden {

/// Set by golden_test_main when the binary runs with --regen.
inline bool g_regen = false;

// --- FNV-1a over double bit patterns ---------------------------------------

inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

inline void fnv_byte(std::uint64_t& h, std::uint8_t b) {
  h ^= b;
  h *= kFnvPrime;
}

inline void fnv_u64(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    fnv_byte(h, static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

inline std::uint64_t hash_series(const std::vector<double>& values) {
  std::uint64_t h = kFnvOffset;
  fnv_u64(h, values.size());
  for (const double v : values) fnv_u64(h, std::bit_cast<std::uint64_t>(v));
  return h;
}

// --- golden file I/O --------------------------------------------------------

/// Named series of one vector, each pinned by its own "<name>_hash".
using Digests = std::map<std::string, std::vector<double>>;

struct Golden {
  /// JSON key ("hash" or "<name>_hash") -> digest.
  std::map<std::string, std::uint64_t> hashes;
  std::map<std::string, std::uint64_t> scalars;
};

inline std::string golden_path(const std::string& dir,
                               const std::string& name) {
  return dir + "/" + name + ".json";
}

inline bool load_golden(const std::string& dir, const std::string& name,
                        Golden& out) {
  std::FILE* f = std::fopen(golden_path(dir, name).c_str(), "r");
  if (!f) return false;
  std::string text;
  char buf[512];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
  std::fclose(f);

  auto hex_after = [&text](std::size_t pos) {
    return std::strtoull(text.c_str() + pos, nullptr, 16);
  };
  // Digests: every "...hash": "<16 hex>" (a scalar's value starts "hex:").
  for (std::size_t pos = 0;
       (pos = text.find("hash\": \"", pos)) != std::string::npos; pos += 8) {
    if (text.compare(pos + 8, 4, "hex:") == 0) continue;
    const std::size_t key_start = text.rfind('"', pos) + 1;
    out.hashes[text.substr(key_start, pos + 4 - key_start)] =
        hex_after(pos + 8);
  }
  if (out.hashes.empty()) return false;
  // Scalars: every occurrence of "key": "hex:....".
  std::size_t pos = 0;
  while ((pos = text.find("\"hex:", pos)) != std::string::npos) {
    const std::size_t key_end = text.rfind('"', text.rfind(':', pos) - 1);
    const std::size_t key_start = text.rfind('"', key_end - 1) + 1;
    out.scalars[text.substr(key_start, key_end - key_start)] =
        hex_after(pos + 5);
    pos += 5;
  }
  return true;
}

inline void write_golden(const std::string& dir, const std::string& name,
                         const std::map<std::string, std::uint64_t>& hashes,
                         const std::map<std::string, double>& scalars) {
  std::FILE* f = std::fopen(golden_path(dir, name).c_str(), "w");
  ASSERT_NE(f, nullptr) << "cannot write " << golden_path(dir, name);
  std::fprintf(f, "{\n  \"name\": \"%s\",\n", name.c_str());
  for (const auto& [key, hash] : hashes) {
    std::fprintf(f, "  \"%s\": \"%016" PRIx64 "\",\n", key.c_str(), hash);
  }
  std::fprintf(f, "  \"scalars\": {");
  bool first = true;
  for (const auto& [key, value] : scalars) {
    std::fprintf(f, "%s\n    \"%s\": \"hex:%016" PRIx64 " dec:%.17g\"",
                 first ? "" : ",", key.c_str(),
                 std::bit_cast<std::uint64_t>(value), value);
    first = false;
  }
  std::fprintf(f, "\n  }\n}\n");
  std::fclose(f);
}

/// Regenerate or verify the digests (JSON key -> hash) and scalars of one
/// golden vector under `dir`.
inline void check_hashes(const std::string& dir, const std::string& name,
                         const std::map<std::string, std::uint64_t>& hashes,
                         const std::map<std::string, double>& scalars) {
  if (g_regen) {
    write_golden(dir, name, hashes, scalars);
    SUCCEED() << "regenerated " << golden_path(dir, name);
    return;
  }
  Golden golden;
  ASSERT_TRUE(load_golden(dir, name, golden))
      << "missing golden vector " << golden_path(dir, name)
      << " — run this test binary with --regen and commit the result";
  EXPECT_EQ(golden.hashes.size(), hashes.size())
      << name << ": the file pins a different set of digests";
  for (const auto& [key, hash] : hashes) {
    const auto it = golden.hashes.find(key);
    ASSERT_NE(it, golden.hashes.end()) << name << ": missing " << key;
    EXPECT_EQ(it->second, hash)
        << name << "." << key << " drifted — the pinned pipeline is no "
        << "longer bit-identical to the checked-in vector. If the change is "
        << "intentional, rerun with --regen and commit.";
  }
  for (const auto& [key, value] : scalars) {
    const auto it = golden.scalars.find(key);
    ASSERT_NE(it, golden.scalars.end()) << name << ": missing scalar " << key;
    EXPECT_EQ(it->second, std::bit_cast<std::uint64_t>(value))
        << name << "." << key << ": expected "
        << std::bit_cast<double>(it->second) << ", got " << value;
  }
}

/// One series pinned by a single "hash".
inline void check_golden(const std::string& dir, const std::string& name,
                         const std::vector<double>& series,
                         const std::map<std::string, double>& scalars) {
  check_hashes(dir, name, {{"hash", hash_series(series)}}, scalars);
}

/// Several named series, each pinned by its own "<name>_hash".
inline void check_golden(const std::string& dir, const std::string& name,
                         const Digests& digests,
                         const std::map<std::string, double>& scalars) {
  std::map<std::string, std::uint64_t> hashes;
  for (const auto& [key, series] : digests) {
    hashes[key + "_hash"] = hash_series(series);
  }
  check_hashes(dir, name, hashes, scalars);
}

/// Drop-in main() for golden test binaries: strips --regen, then runs
/// gtest as usual.
inline int golden_test_main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--regen") g_regen = true;
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}

}  // namespace ecocap::golden
