#include "replay.hpp"

#include <cmath>
#include <cstring>

#include "numerics/bfp.hpp"
#include "numerics/bfp_kernel.hpp"
#include "numerics/nonlinear.hpp"
#include "numerics/slices.hpp"

namespace bfpbench {

using namespace bfpsim;

namespace {

std::vector<float> transpose(const std::vector<float>& a, int rows,
                             int cols) {
  std::vector<float> t(a.size());
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      t[static_cast<std::size_t>(c) * rows + r] =
          a[static_cast<std::size_t>(r) * cols + c];
    }
  }
  return t;
}

/// The replay's layer calls, charging modelled cycles exactly as
/// forward_mixed does.
class Replayer {
 public:
  Replayer(const AcceleratorSystem& sys, SpanLog& log, ReplayCounts& c)
      : sys_(sys), log_(log), c_(c) {
    const PuConfig& pu = sys.config().pu;
    if (pu.format.shared_exponent) {
      fmt_.mant_bits = pu.format.wm;
      fmt_.exp_bits = pu.format.we;
    }
    fmt_.rows = pu.array.rows;
    fmt_.cols = pu.array.cols;
  }

  std::vector<float> gemm(const std::vector<float>& a, int m, int k,
                          const std::vector<float>& b, int n,
                          bool b_is_weight) {
    GemmRun run;
    log_.time("fabric.gemm", [&] { run = sys_.gemm(a, m, k, b, n); });
    c_.stats.bfp_macs += run.macs;
    c_.stats.linear_cycles += run.compute_cycles;
    ++c_.gemm_calls;

    // The same GEMM split into its quantize and kernel calls.
    const PuConfig& pu = sys_.config().pu;
    BfpMatrix am, bm;
    log_.time("numerics.quantize",
              [&] { am = quantize_matrix(a, m, k, fmt_, pu.quant_round); });
    log_.time("numerics.quantize",
              [&] { bm = quantize_matrix(b, k, n, fmt_, pu.quant_round); });
    std::vector<float> split;
    log_.time("numerics.gemm_kernel", [&] {
      split = bfp_gemm_dispatch(am, bm, m, n, pu.psu_bits,
                                active_kernel_tier(), sys_.thread_pool());
    });
    const auto a_elems = static_cast<std::uint64_t>(m) * k;
    const auto b_elems = static_cast<std::uint64_t>(k) * n;
    c_.quant_elems += a_elems + b_elems;
    if (b_is_weight) c_.quant_weight_elems += b_elems;
    c_.kernel_macs += static_cast<std::uint64_t>(m) * k * n;
    c_.split_matches =
        c_.split_matches && split.size() == run.c.size() &&
        std::memcmp(split.data(), run.c.data(),
                    split.size() * sizeof(float)) == 0;
    return std::move(run.c);
  }

  std::vector<float> layernorm(const std::vector<float>& x, int rows,
                               int cols, const std::vector<float>& g,
                               const std::vector<float>& b) {
    std::vector<float> y;
    vector_op("numerics.layernorm", [&](OpCounter* ops) {
      y = approx_layernorm(x, rows, cols, g, b, ops);
    });
    c_.layernorm_elems += x.size();
    return y;
  }

  std::vector<float> softmax(const std::vector<float>& x, int rows,
                             int cols) {
    std::vector<float> y;
    vector_op("numerics.softmax",
              [&](OpCounter* ops) { y = approx_softmax(x, rows, cols, ops); });
    c_.softmax_elems += x.size();
    return y;
  }

  std::vector<float> gelu(const std::vector<float>& x) {
    std::vector<float> y;
    vector_op("numerics.gelu", [&](OpCounter* ops) {
      y = approx_gelu(std::span<const float>(x), ops);
    });
    c_.gelu_elems += x.size();
    return y;
  }

  void add_bias(std::vector<float>& x, int rows, int cols,
                const std::vector<float>& bias) {
    log_.time("numerics.elementwise", [&] {
      for (int r = 0; r < rows; ++r) {
        for (int c = 0; c < cols; ++c) {
          float& v = x[static_cast<std::size_t>(r) * cols + c];
          v = fp32_add_aligned(v, bias[static_cast<std::size_t>(c)]);
        }
      }
    });
    charge_elementwise(0, x.size());
  }

  void add_residual(std::vector<float>& x, const std::vector<float>& y) {
    log_.time("numerics.elementwise", [&] {
      for (std::size_t i = 0; i < x.size(); ++i) {
        x[i] = fp32_add_aligned(x[i], y[i]);
      }
    });
    charge_elementwise(0, x.size());
  }

  void scale(std::vector<float>& x, float s) {
    log_.time("numerics.elementwise", [&] {
      for (float& v : x) v = fp32_mul_sliced(v, s);
    });
    charge_elementwise(x.size(), 0);
  }

 private:
  template <typename Fn>
  void vector_op(const char* name, Fn&& fn) {
    const OpCounter before = c_.stats.nonlinear_ops;
    log_.time(name, [&] { fn(&c_.stats.nonlinear_ops); });
    const OpCounter& after = c_.stats.nonlinear_ops;
    c_.stats.vector_cycles +=
        sys_.vector_latency(after.fp_mul - before.fp_mul,
                            after.fp_add - before.fp_add)
            .cycles;
  }

  void charge_elementwise(std::uint64_t muls, std::uint64_t adds) {
    c_.stats.nonlinear_ops.fp_mul += muls;
    c_.stats.nonlinear_ops.fp_add += adds;
    c_.stats.vector_cycles += sys_.vector_latency(muls, adds).cycles;
    c_.elementwise_elems += muls + adds;
  }

  const AcceleratorSystem& sys_;
  SpanLog& log_;
  ReplayCounts& c_;
  BfpFormat fmt_;
};

}  // namespace

std::vector<float> replay_forward(const VitWeights& w, std::vector<float> x,
                                  const AcceleratorSystem& sys, SpanLog& log,
                                  ReplayCounts& counts) {
  const int t = w.cfg.tokens();
  const int d = w.cfg.embed_dim;
  const int h = w.cfg.num_heads;
  const int hd = w.cfg.head_dim();
  const int m = w.cfg.mlp_hidden();
  const float scale = 1.0F / std::sqrt(static_cast<float>(hd));
  Replayer rp(sys, log, counts);

  for (const BlockWeights& b : w.blocks) {
    const auto ln1 = rp.layernorm(x, t, d, b.ln1_gamma, b.ln1_beta);
    auto qkv = rp.gemm(ln1, t, d, b.qkv_w, 3 * d, true);
    rp.add_bias(qkv, t, 3 * d, b.qkv_b);

    std::vector<float> attn_out(static_cast<std::size_t>(t) * d);
    for (int head = 0; head < h; ++head) {
      std::vector<float> q(static_cast<std::size_t>(t) * hd);
      std::vector<float> kk(q.size());
      std::vector<float> v(q.size());
      for (int r = 0; r < t; ++r) {
        const std::size_t base = static_cast<std::size_t>(r) * 3 * d;
        for (int c = 0; c < hd; ++c) {
          const std::size_t o = static_cast<std::size_t>(r) * hd + c;
          q[o] = qkv[base + static_cast<std::size_t>(head * hd + c)];
          kk[o] = qkv[base + static_cast<std::size_t>(d + head * hd + c)];
          v[o] = qkv[base + static_cast<std::size_t>(2 * d + head * hd + c)];
        }
      }
      auto scores = rp.gemm(q, t, hd, transpose(kk, t, hd), t, false);
      rp.scale(scores, scale);
      const auto probs = rp.softmax(scores, t, t);
      const auto ctx = rp.gemm(probs, t, t, v, hd, false);
      for (int r = 0; r < t; ++r) {
        for (int c = 0; c < hd; ++c) {
          attn_out[static_cast<std::size_t>(r) * d + head * hd + c] =
              ctx[static_cast<std::size_t>(r) * hd + c];
        }
      }
    }
    auto proj = rp.gemm(attn_out, t, d, b.proj_w, d, true);
    rp.add_bias(proj, t, d, b.proj_b);
    rp.add_residual(x, proj);

    const auto ln2 = rp.layernorm(x, t, d, b.ln2_gamma, b.ln2_beta);
    auto hdn = rp.gemm(ln2, t, d, b.fc1_w, m, true);
    rp.add_bias(hdn, t, m, b.fc1_b);
    const auto act = rp.gelu(hdn);
    auto out = rp.gemm(act, t, m, b.fc2_w, d, true);
    rp.add_bias(out, t, d, b.fc2_b);
    rp.add_residual(x, out);
  }
  return x;
}

}  // namespace bfpbench
