#include <gtest/gtest.h>

#include <vector>

#include "codec/bitstream.h"
#include "codec/encoder.h"
#include "common/crc32.h"
#include "image/scene.h"

// Pins the coded stream format: which stream versions the parser accepts,
// and the exact bytes a fixed clip encodes to. A failure here means stored
// streams written by an earlier build may no longer decode the same way.

namespace vc {
namespace {

TEST(BitstreamTest, HeaderRejectsVersionOneStreams) {
  // VCC1 streams were coded with the floating-point transform; decoding
  // them with the integer one would drift silently, so they are refused.
  SequenceHeader header;
  header.width = 64;
  header.height = 32;
  auto bytes = header.Serialize();
  ASSERT_TRUE(SequenceHeader::Parse(Slice(bytes)).ok());
  ASSERT_EQ(bytes[3], '2');
  bytes[3] = '1';
  EXPECT_TRUE(SequenceHeader::Parse(Slice(bytes)).status().IsCorruption());
  EXPECT_TRUE(EncodedVideo::Parse(Slice(bytes)).status().IsCorruption());
}

TEST(CodecTest, PinnedStreamCrc) {
  // The whole codec is integer arithmetic, so a fixed clip must encode to
  // the same bytes in every build: scalar-only, SSE4.1, sanitizer, and any
  // runtime SIMD tier. Re-pin deliberately (and bump the stream magic) only
  // when the stream semantics change.
  EncoderOptions options;
  options.width = 128;
  options.height = 64;
  options.gop_length = 8;
  options.qp = 28;
  options.tile_rows = 2;
  options.tile_cols = 2;
  SceneOptions scene_options;
  scene_options.width = options.width;
  scene_options.height = options.height;
  auto scene = NewVeniceScene(scene_options);
  auto video = EncodeVideo(RenderScene(*scene, 2 * options.gop_length), options);
  ASSERT_TRUE(video.ok());
  const std::vector<uint8_t> bytes = video->Serialize();
  EXPECT_EQ(bytes.size(), 4632u);
  EXPECT_EQ(Crc32(Slice(bytes)), 0x7E5A08B2u);
}

}  // namespace
}  // namespace vc
