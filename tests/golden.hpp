#pragma once
// Golden-output helpers for the psi-NKS recovery tests (test_resilience,
// test_sdc): CRC32s of a run's RecoveryLog text and of the checkpoint file
// it left behind.

#include <cctype>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <string>
#include <utility>

#include "common/crc32.hpp"
#include "resilience/checkpoint.hpp"
#include "resilience/recovery.hpp"

namespace f3d::golden {

// Exception messages in the log carry __FILE__:__LINE__ of the throwing
// check; goldens strip that prefix so they hold for any checkout location
// and survive edits that only move lines.
inline std::string without_source_locations(std::string s) {
  for (const char* ext : {".cpp:", ".hpp:"}) {
    for (std::size_t p = s.find(ext); p != std::string::npos;
         p = s.find(ext, p)) {
      std::size_t end = p + 5;
      while (end < s.size() && std::isdigit(static_cast<unsigned char>(s[end])))
        ++end;
      if (end == p + 5 || s.compare(end, 2, ": ") != 0) {
        p = end;
        continue;
      }
      const std::size_t cut = s.find_last_of(" \t\n(", p);
      p = cut == std::string::npos ? 0 : cut + 1;
      s.erase(p, end + 2 - p);
    }
  }
  return s;
}

/// {CRC32 of the log text, CRC32 of the checkpoint at `checkpoint_path`},
/// source locations stripped from the logged details (the checkpoint is
/// decoded, normalized and re-encoded; 0 when it does not decode).
inline std::pair<std::uint32_t, std::uint32_t> crcs(
    const resilience::RecoveryLog& log, const std::string& checkpoint_path) {
  const std::string text = without_source_locations(log.to_string());
  std::ifstream in(checkpoint_path, std::ios::binary);
  auto ck = resilience::decode_checkpoint(
      {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()});
  if (!ck) return {crc32(text.data(), text.size()), 0};
  resilience::RecoveryLog normalized;
  for (const auto& e : ck->log.events())
    normalized.add(e.step, e.action, without_source_locations(e.detail));
  ck->log = normalized;
  const std::string bytes = resilience::encode_checkpoint(*ck);
  return {crc32(text.data(), text.size()), crc32(bytes.data(), bytes.size())};
}

}  // namespace f3d::golden
