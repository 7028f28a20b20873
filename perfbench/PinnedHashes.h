//===- perfbench/PinnedHashes.h - Reference hashes of the workloads -------===//
//
// fieldStateHash of the single-process fused reference after the given
// step count, per workload and input variant (seed % 8).  A row is
// produced by `perfbench --workload W --seed V --seconds S --record`; the
// step count is the warm-up plus one segment's timed steps at that
// --seconds, and every segment of a run must end on the row's hash.
// fig4-fused and fig4-sac share their inputs, and both engines must
// reproduce the fused reference bit for bit.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_PINNEDHASHES_H
#define PERFBENCH_PINNEDHASHES_H

#include <cstdint>
#include <optional>
#include <string_view>

namespace perfbench {

struct PinnedRow {
  const char *Workload;
  unsigned Variant;
  unsigned Steps;
  uint64_t Hash;
};

inline constexpr PinnedRow PinnedRows[] = {
    {"fig4-fused", 0, 38, 0x7066a6f5e0ea8069ull},
    {"fig4-fused", 1, 38, 0x3ca6e00aeb52a955ull},
    {"fig4-fused", 2, 38, 0xabdce5e49971d7ddull},
    {"fig4-fused", 3, 38, 0x48d7121b8844725eull},
    {"fig4-fused", 4, 38, 0x70338e3c3d75217dull},
    {"fig4-fused", 5, 38, 0x8c09e1c2b17a5789ull},
    {"fig4-fused", 6, 38, 0xf71641f193b81f03ull},
    {"fig4-fused", 7, 38, 0x2323b035aa9a2132ull},
    {"fig4-sac", 0, 62, 0x05226ff1562f34f0ull},
    {"fig4-sac", 1, 62, 0x431dee377b2222d6ull},
    {"fig4-sac", 2, 62, 0xabaad8e64cb0dd2full},
    {"fig4-sac", 3, 62, 0x3f8fb55841c804a1ull},
    {"fig4-sac", 4, 62, 0x185154db818c3e35ull},
    {"fig4-sac", 5, 62, 0x0681e4f9ba4a0748ull},
    {"fig4-sac", 6, 62, 0x049ece1b315213d3ull},
    {"fig4-sac", 7, 62, 0x0d5af1024e47d3fcull},
    {"ext5-shards", 0, 9, 0x0b4dc62c7bf505c5ull},
    {"ext5-shards", 1, 9, 0x2fb79f04be6b8490ull},
    {"ext5-shards", 2, 9, 0x7aa6e1f5d5051e0dull},
    {"ext5-shards", 3, 9, 0x16ddff6c70f4984dull},
    {"ext5-shards", 4, 9, 0x0ad2e8ab5481dfa3ull},
    {"ext5-shards", 5, 9, 0x331c85a331b5dbcbull},
    {"ext5-shards", 6, 9, 0xad7e78d61fe7ee3bull},
    {"ext5-shards", 7, 9, 0x62115cfe2039e62eull},
    {"dmr-durable", 0, 52, 0x3db6b884dab61e2eull},
};

inline std::optional<uint64_t>
pinnedHash(std::string_view Workload, unsigned Variant, unsigned Steps) {
  for (const PinnedRow &R : PinnedRows)
    if (Workload == R.Workload && Variant == R.Variant && Steps == R.Steps)
      return R.Hash;
  return std::nullopt;
}

} // namespace perfbench

#endif // PERFBENCH_PINNEDHASHES_H
