// Binary checkpointing:
//   * VitWeights save/load (fp32 master weights), and
//   * quantized-model export — a BfpMatrix container holding the bfp8
//     blocks exactly as the accelerator's buffers consume them (the
//     deployable artifact a host driver would DMA to HBM).
//
// Format: little-endian, magic + version header, fixed-width fields.
// Load functions validate magic/version/shape and throw bfpsim::Error on
// any corruption rather than constructing garbage.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "numerics/bfp.hpp"
#include "transformer/model.hpp"

namespace bfpsim {

/// ---- fp32 model checkpoints ----

void save_weights(std::ostream& os, const VitWeights& w);
VitWeights load_weights(std::istream& is);

void save_weights_file(const std::string& path, const VitWeights& w);
VitWeights load_weights_file(const std::string& path);

/// ---- quantized tensor export ----

void save_bfp_matrix(std::ostream& os, const BfpMatrix& m);
/// The bytes save_bfp_matrix writes, serialized straight into one buffer
/// (the device image Session::deploy uploads).
std::vector<std::uint8_t> bfp_matrix_bytes(const BfpMatrix& m);
BfpMatrix load_bfp_matrix(std::istream& is);

/// Size in bytes of the serialized bfp image (65 bytes per 8x8 block plus
/// the header) — what the deployment actually ships to the device.
std::size_t bfp_image_bytes(const BfpMatrix& m);

}  // namespace bfpsim
