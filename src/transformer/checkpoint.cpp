#include "transformer/checkpoint.hpp"

#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <vector>

#include "common/error.hpp"

namespace bfpsim {

namespace {

constexpr std::uint32_t kWeightsMagic = 0x42465057;  // "BFPW"
constexpr std::uint32_t kMatrixMagic = 0x4246504D;   // "BFPM"
constexpr std::uint32_t kVersion = 1;

void put_u32(std::ostream& os, std::uint32_t v) {
  char buf[4];
  for (int i = 0; i < 4; ++i) buf[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  os.write(buf, 4);
}

std::uint32_t get_u32(std::istream& is) {
  char buf[4];
  is.read(buf, 4);
  BFP_REQUIRE(is.good(), "checkpoint: truncated stream");
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(static_cast<unsigned char>(buf[i]))
         << (8 * i);
  }
  return v;
}

void put_i32(std::ostream& os, std::int32_t v) {
  put_u32(os, static_cast<std::uint32_t>(v));
}
std::int32_t get_i32(std::istream& is) {
  return static_cast<std::int32_t>(get_u32(is));
}

void put_floats(std::ostream& os, const std::vector<float>& v) {
  put_u32(os, static_cast<std::uint32_t>(v.size()));
  os.write(reinterpret_cast<const char*>(v.data()),
           static_cast<std::streamsize>(v.size() * sizeof(float)));
}

std::vector<float> get_floats(std::istream& is, std::size_t expect) {
  const std::uint32_t n = get_u32(is);
  BFP_REQUIRE(n == expect, "checkpoint: tensor size mismatch");
  std::vector<float> v(n);
  is.read(reinterpret_cast<char*>(v.data()),
          static_cast<std::streamsize>(n * sizeof(float)));
  BFP_REQUIRE(is.good(), "checkpoint: truncated stream");
  return v;
}

}  // namespace

void save_weights(std::ostream& os, const VitWeights& w) {
  w.cfg.validate();
  put_u32(os, kWeightsMagic);
  put_u32(os, kVersion);
  put_i32(os, w.cfg.image_size);
  put_i32(os, w.cfg.patch_size);
  put_i32(os, w.cfg.embed_dim);
  put_i32(os, w.cfg.depth);
  put_i32(os, w.cfg.num_heads);
  put_i32(os, w.cfg.mlp_ratio);
  put_i32(os, w.cfg.num_classes);
  // The tensor stream follows the canonical weight_schema() order — the
  // same walk random_weights() fills from (schema access is read-only).
  auto& mut = const_cast<VitWeights&>(w);
  for (const WeightTensor& t : weight_schema(mut)) {
    put_floats(os, *t.data);
  }
  BFP_REQUIRE(os.good(), "save_weights: write failure");
}

VitWeights load_weights(std::istream& is) {
  BFP_REQUIRE(get_u32(is) == kWeightsMagic, "load_weights: bad magic");
  BFP_REQUIRE(get_u32(is) == kVersion, "load_weights: unsupported version");
  VitConfig cfg;
  cfg.image_size = get_i32(is);
  cfg.patch_size = get_i32(is);
  cfg.embed_dim = get_i32(is);
  cfg.depth = get_i32(is);
  cfg.num_heads = get_i32(is);
  cfg.mlp_ratio = get_i32(is);
  cfg.num_classes = get_i32(is);
  cfg.validate();
  VitWeights w;
  w.cfg = cfg;
  for (const WeightTensor& t : weight_schema(w)) {
    *t.data = get_floats(is, t.size());
  }
  return w;
}

void save_weights_file(const std::string& path, const VitWeights& w) {
  std::ofstream os(path, std::ios::binary);
  BFP_REQUIRE(os.is_open(), "save_weights_file: cannot open " + path);
  save_weights(os, w);
}

VitWeights load_weights_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  BFP_REQUIRE(is.is_open(), "load_weights_file: cannot open " + path);
  return load_weights(is);
}

std::vector<std::uint8_t> bfp_matrix_bytes(const BfpMatrix& m) {
  m.fmt.validate();
  // Mantissas ship as the same 8-bit two's-complement bytes the operand
  // buffers hold (wider formats use 2 bytes, little-endian), each block
  // after its 32-bit exponent; every field is little-endian.
  const std::size_t mant_bytes = m.fmt.mant_bits <= 8 ? 1 : 2;
  const std::size_t block_bytes =
      4 + static_cast<std::size_t>(m.fmt.elements()) * mant_bytes;
  std::vector<std::uint8_t> out;
  out.reserve(9 * 4 + m.blocks.size() * block_bytes);
  auto put = [&](std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      out.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xFF));
    }
  };
  put(kMatrixMagic);
  put(kVersion);
  put(static_cast<std::uint32_t>(m.fmt.mant_bits));
  put(static_cast<std::uint32_t>(m.fmt.exp_bits));
  put(static_cast<std::uint32_t>(m.fmt.rows));
  put(static_cast<std::uint32_t>(m.fmt.cols));
  put(m.fmt.symmetric ? 1 : 0);
  put(static_cast<std::uint32_t>(m.rows));
  put(static_cast<std::uint32_t>(m.cols));
  for (const BfpBlock& b : m.blocks) {
    put(static_cast<std::uint32_t>(b.expb));
    for (const std::int16_t v : b.man) {
      out.push_back(static_cast<std::uint8_t>(v & 0xFF));
      if (mant_bytes == 2) {
        out.push_back(static_cast<std::uint8_t>((v >> 8) & 0xFF));
      }
    }
  }
  return out;
}

void save_bfp_matrix(std::ostream& os, const BfpMatrix& m) {
  const std::vector<std::uint8_t> bytes = bfp_matrix_bytes(m);
  os.write(reinterpret_cast<const char*>(bytes.data()),
           static_cast<std::streamsize>(bytes.size()));
  BFP_REQUIRE(os.good(), "save_bfp_matrix: write failure");
}

BfpMatrix load_bfp_matrix(std::istream& is) {
  BFP_REQUIRE(get_u32(is) == kMatrixMagic, "load_bfp_matrix: bad magic");
  BFP_REQUIRE(get_u32(is) == kVersion,
              "load_bfp_matrix: unsupported version");
  BfpMatrix m;
  m.fmt.mant_bits = get_i32(is);
  m.fmt.exp_bits = get_i32(is);
  m.fmt.rows = get_i32(is);
  m.fmt.cols = get_i32(is);
  m.fmt.symmetric = get_u32(is) != 0;
  m.fmt.validate();
  m.rows = get_i32(is);
  m.cols = get_i32(is);
  BFP_REQUIRE(m.rows > 0 && m.cols > 0 && m.rows % m.fmt.rows == 0 &&
                  m.cols % m.fmt.cols == 0,
              "load_bfp_matrix: invalid dimensions");
  const int nblocks = m.block_rows() * m.block_cols();
  m.blocks.reserve(static_cast<std::size_t>(nblocks));
  for (int i = 0; i < nblocks; ++i) {
    BfpBlock b(m.fmt);
    b.expb = get_i32(is);
    for (auto& v : b.man) {
      if (m.fmt.mant_bits <= 8) {
        char byte = 0;
        is.read(&byte, 1);
        v = static_cast<std::int16_t>(static_cast<signed char>(byte));
      } else {
        char bytes[2] = {0, 0};
        is.read(bytes, 2);
        v = static_cast<std::int16_t>(
            static_cast<unsigned char>(bytes[0]) |
            (static_cast<std::int16_t>(static_cast<signed char>(bytes[1]))
             << 8));
      }
    }
    BFP_REQUIRE(is.good(), "load_bfp_matrix: truncated stream");
    BFP_REQUIRE(b.well_formed(), "load_bfp_matrix: malformed block");
    m.blocks.push_back(std::move(b));
  }
  return m;
}

std::size_t bfp_image_bytes(const BfpMatrix& m) {
  // Header: magic + version + 5 format fields + logical rows/cols = 36 B.
  constexpr std::size_t kHeader = 9 * 4;
  const std::size_t per_block =
      4 + static_cast<std::size_t>(m.fmt.elements()) *
              (m.fmt.mant_bits <= 8 ? 1 : 2);
  return kHeader + m.blocks.size() * per_block;
}

}  // namespace bfpsim
