#include "nn/batched_seq2seq.h"

#include <algorithm>

#include "common/check.h"
#include "common/obs/metrics.h"
#include "common/parallel.h"
#include "nn/activation.h"

namespace tamp::nn {
namespace {

/// Runs `activate` over `rows` rows of `cols` values spaced `stride` apart,
/// in one call when the rows are back to back (a tile spanning the batch).
template <class F>
void ActivateRows(F activate, double* first, size_t rows, size_t stride,
                  size_t cols) {
  if (cols == stride) {
    activate(first, rows * cols);
    return;
  }
  for (size_t r = 0; r < rows; ++r) activate(first + r * stride, cols);
}

}  // namespace

BatchedSeq2Seq::BatchedSeq2Seq(const Seq2SeqConfig& config)
    : config_(config),
      encoder_(config.input_dim, config.hidden_dim, /*offset=*/0),
      decoder_(config.output_dim, config.hidden_dim, encoder_.param_count()),
      readout_(config.hidden_dim, config.output_dim,
               encoder_.param_count() + decoder_.param_count()),
      param_count_(encoder_.param_count() + decoder_.param_count() +
                   readout_.param_count()) {
  TAMP_CHECK(config.seq_out >= 1);
}

void BatchedSeq2Seq::PlanBatch(
    const std::vector<const std::vector<double>*>& row_params,
    BatchedSeq2SeqScratch& scratch) const {
  const size_t rows = row_params.size();
  // Group rows by parameter-vector identity in first-occurrence order (the
  // map is a lookup table only — the deterministic order lives in
  // group_rows). Identity, not value: two equal vectors at different
  // addresses stay separate groups, which only costs GEMM-ness, never
  // correctness.
  scratch.group_index.clear();
  size_t n_groups = 0;
  for (size_t r = 0; r < rows; ++r) {
    TAMP_CHECK(row_params[r] != nullptr);
    TAMP_CHECK(row_params[r]->size() == param_count_);
    auto [it, inserted] = scratch.group_index.try_emplace(row_params[r],
                                                          n_groups);
    if (inserted) {
      if (scratch.group_rows.size() <= n_groups) {
        scratch.group_rows.emplace_back();
      }
      scratch.group_rows[n_groups].clear();
      ++n_groups;
    }
    scratch.group_rows[it->second].push_back(static_cast<int>(r));
  }

  // Lay the groups out as columns, each group as tiles of at most
  // kTileCols columns: one weight fetch serves the whole tile (GEMM).
  scratch.col_row.clear();
  scratch.tiles.clear();
  for (size_t g = 0; g < n_groups; ++g) {
    const std::vector<int>& members = scratch.group_rows[g];
    const std::vector<double>* params =
        row_params[static_cast<size_t>(members[0])];
    const size_t group_begin = scratch.col_row.size();
    scratch.col_row.insert(scratch.col_row.end(), members.begin(),
                           members.end());
    for (size_t b = group_begin; b < scratch.col_row.size(); b += kTileCols) {
      scratch.tiles.push_back(
          {b, std::min(scratch.col_row.size(), b + kTileCols), params});
    }
  }
  TAMP_CHECK(scratch.col_row.size() == rows);
}

void BatchedSeq2Seq::CellStep(const LstmCell& cell,
                              const BatchedSeq2SeqScratch::Tile& tile,
                              size_t width,
                              BatchedSeq2SeqScratch& scratch) const {
  const size_t id = static_cast<size_t>(cell.input_dim());
  const size_t hd = static_cast<size_t>(cell.hidden_dim());
  const size_t h4 = 4 * hd;
  const size_t begin = tile.begin;
  const size_t end = tile.end;
  double* z = scratch.z.data();
  double* h = scratch.h.data();
  double* c = scratch.c.data();
  const double* x = scratch.x.data();

  // z = W_x x + W_h h_prev + b, gate blocks [i f g o]. Per column the
  // accumulation chain is exactly LstmCell::Forward's: b[r], then W_x row
  // r in ascending k, then W_h row r in ascending k. The weight element is
  // a loop invariant across the tile's columns (r-k-col loop order).
  const double* wx = tile.params->data() + cell.offset();
  const double* wh = wx + h4 * id;
  const double* b = wh + h4 * hd;
  for (size_t r = 0; r < h4; ++r) {
    double* zr = z + r * width;
    const double br = b[r];
    for (size_t col = begin; col < end; ++col) zr[col] = br;
    const double* wxr = wx + r * id;
    for (size_t k = 0; k < id; ++k) {
      const double w = wxr[k];
      const double* xk = x + k * width;
      for (size_t col = begin; col < end; ++col) zr[col] += w * xk[col];
    }
    const double* whr = wh + r * hd;
    for (size_t k = 0; k < hd; ++k) {
      const double w = whr[k];
      const double* hk = h + k * width;
      for (size_t col = begin; col < end; ++col) zr[col] += w * hk[col];
    }
  }

  // Element-wise gate update over the tile's columns. Every element is a
  // function of its own inputs only, so any loop order and any split into
  // activation calls keeps bit-identity with LstmCell::Forward.
  const size_t cols = end - begin;
  ActivateRows(SigmoidInPlace, z + begin, 2 * hd, width, cols);  // i, f
  ActivateRows(TanhInPlace, z + 2 * hd * width + begin, hd, width, cols);
  ActivateRows(SigmoidInPlace, z + 3 * hd * width + begin, hd, width, cols);
  for (size_t k = 0; k < hd; ++k) {
    const double* iv = z + k * width;
    const double* fv = z + (hd + k) * width;
    const double* gv = z + (2 * hd + k) * width;
    double* ck = c + k * width;
    double* hk = h + k * width;
    for (size_t col = begin; col < end; ++col) {
      ck[col] = fv[col] * ck[col] + iv[col] * gv[col];
      hk[col] = ck[col];
    }
  }
  ActivateRows(TanhInPlace, h + begin, hd, width, cols);
  for (size_t k = 0; k < hd; ++k) {
    const double* ov = z + (3 * hd + k) * width;
    double* hk = h + k * width;
    for (size_t col = begin; col < end; ++col) hk[col] = ov[col] * hk[col];
  }
}

void BatchedSeq2Seq::ReadoutStep(const BatchedSeq2SeqScratch::Tile& tile,
                                 size_t width, double* dst,
                                 BatchedSeq2SeqScratch& scratch) const {
  const size_t in = static_cast<size_t>(readout_.in_dim());
  const size_t out = static_cast<size_t>(readout_.out_dim());
  const size_t begin = tile.begin;
  const size_t end = tile.end;
  const double* h = scratch.h.data();
  const double* w = tile.params->data() + readout_.offset();
  const double* b = w + out * in;
  for (size_t r = 0; r < out; ++r) {
    double* dr = dst + r * width;
    const double br = b[r];
    for (size_t col = begin; col < end; ++col) dr[col] = br;
    const double* wr = w + r * in;
    for (size_t k = 0; k < in; ++k) {
      const double wv = wr[k];
      const double* hk = h + k * width;
      for (size_t col = begin; col < end; ++col) dr[col] += wv * hk[col];
    }
  }
}

void BatchedSeq2Seq::RunTile(const BatchedSeq2SeqScratch::Tile& tile,
                             size_t width, int seq_in, const double* inputs,
                             BatchedSeq2SeqScratch& scratch) const {
  const size_t id = static_cast<size_t>(config_.input_dim);
  const size_t hd = static_cast<size_t>(config_.hidden_dim);
  const size_t od = static_cast<size_t>(config_.output_dim);
  const size_t in_steps = static_cast<size_t>(seq_in);
  const size_t seq_out = static_cast<size_t>(config_.seq_out);
  const size_t begin = tile.begin;
  const size_t end = tile.end;
  double* x = scratch.x.data();
  double* h = scratch.h.data();
  double* c = scratch.c.data();

  for (size_t k = 0; k < hd; ++k) {
    for (size_t col = begin; col < end; ++col) {
      h[k * width + col] = 0.0;
      c[k * width + col] = 0.0;
    }
  }

  // Encoder: gather each step's caller-row-ordered inputs into the tile's
  // columns, then one fused cell step.
  for (size_t t = 0; t < in_steps; ++t) {
    for (size_t k = 0; k < id; ++k) {
      const double* src = inputs + (t * id + k) * width;
      double* xk = x + k * width;
      for (size_t col = begin; col < end; ++col) {
        xk[col] = src[static_cast<size_t>(scratch.col_row[col])];
      }
    }
    CellStep(encoder_, tile, width, scratch);
  }

  // Decoder: the first input is the last observed step resized to
  // output_dim (truncate or zero-pad, like EncoderDecoder::RunForward);
  // later inputs are the previous prediction.
  for (size_t k = 0; k < od; ++k) {
    double* xk = x + k * width;
    if (k < id) {
      const double* src = inputs + ((in_steps - 1) * id + k) * width;
      for (size_t col = begin; col < end; ++col) {
        xk[col] = src[static_cast<size_t>(scratch.col_row[col])];
      }
    } else {
      for (size_t col = begin; col < end; ++col) xk[col] = 0.0;
    }
  }
  for (size_t t = 0; t < seq_out; ++t) {
    CellStep(decoder_, tile, width, scratch);
    double* step_out = scratch.out.data() + t * od * width;
    ReadoutStep(tile, width, step_out, scratch);
    if (t + 1 < seq_out) {
      for (size_t k = 0; k < od; ++k) {
        const double* src = step_out + k * width;
        double* xk = x + k * width;
        for (size_t col = begin; col < end; ++col) xk[col] = src[col];
      }
    }
  }
}

void BatchedSeq2Seq::Forward(
    const std::vector<const std::vector<double>*>& row_params, int seq_in,
    const double* inputs, double* outputs,
    BatchedSeq2SeqScratch& scratch) const {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  static obs::Counter& cells_counter =
      registry.GetCounter("nn.forecast_cells");
  static obs::Counter& gemm_counter =
      registry.GetCounter("nn.batched_gemm_calls");
  static obs::Counter& rows_counter = registry.GetCounter("nn.batch_rows");

  const size_t rows = row_params.size();
  if (rows == 0) return;
  TAMP_CHECK(seq_in >= 1);
  PlanBatch(row_params, scratch);

  const size_t id = static_cast<size_t>(config_.input_dim);
  const size_t hd = static_cast<size_t>(config_.hidden_dim);
  const size_t od = static_cast<size_t>(config_.output_dim);
  const size_t seq_out = static_cast<size_t>(config_.seq_out);
  const size_t x_rows = std::max(id, od);
  scratch.x.resize(x_rows * rows);
  scratch.h.resize(hd * rows);
  scratch.c.resize(hd * rows);
  scratch.z.resize(4 * hd * rows);
  scratch.out.resize(seq_out * od * rows);

  // Deterministic work accounting, centralized so the totals are exact and
  // thread-invariant: every row pays (seq_in + seq_out) cell steps (the
  // scalar path's LstmCell::Forward call count), and every tile launches
  // one fused gate kernel per cell step plus one readout kernel per
  // decoder step.
  const size_t cell_steps = static_cast<size_t>(seq_in) + seq_out;
  cells_counter.Increment(static_cast<int64_t>(rows * cell_steps));
  gemm_counter.Increment(
      static_cast<int64_t>(scratch.tiles.size() * (cell_steps + seq_out)));
  rows_counter.Increment(static_cast<int64_t>(rows));

  // Tiles write disjoint column ranges of the shared SoA buffers, so the
  // fan-out is race-free and the result thread-count independent.
  ParallelFor(scratch.tiles.size(), [&](size_t ti) {
    RunTile(scratch.tiles[ti], rows, seq_in, inputs, scratch);
  });

  // Scatter column-ordered outputs back to caller row order.
  for (size_t t = 0; t < seq_out; ++t) {
    for (size_t k = 0; k < od; ++k) {
      const double* src = scratch.out.data() + (t * od + k) * rows;
      double* dst = outputs + (t * od + k) * rows;
      for (size_t col = 0; col < rows; ++col) {
        dst[static_cast<size_t>(scratch.col_row[col])] = src[col];
      }
    }
  }
}

void BatchedSeq2Seq::PredictBatch(
    const std::vector<const std::vector<double>*>& row_params,
    const std::vector<const Sequence*>& inputs, std::vector<Sequence>* outputs,
    BatchedSeq2SeqScratch& scratch) const {
  TAMP_CHECK(outputs != nullptr);
  TAMP_CHECK(inputs.size() == row_params.size());
  const size_t rows = row_params.size();
  outputs->resize(rows);
  if (rows == 0) return;

  const size_t id = static_cast<size_t>(config_.input_dim);
  const size_t od = static_cast<size_t>(config_.output_dim);
  const size_t seq_out = static_cast<size_t>(config_.seq_out);
  TAMP_CHECK(inputs[0] != nullptr && !inputs[0]->empty());
  const size_t seq_in = inputs[0]->size();
  for (size_t r = 0; r < rows; ++r) {
    TAMP_CHECK(inputs[r] != nullptr);
    TAMP_CHECK_MSG(inputs[r]->size() == seq_in,
                   "PredictBatch rows must share one input length");
    for (const std::vector<double>& step : *inputs[r]) {
      TAMP_CHECK(step.size() == id);
    }
  }

  scratch.pack_in.resize(seq_in * id * rows);
  scratch.pack_out.resize(seq_out * od * rows);
  for (size_t t = 0; t < seq_in; ++t) {
    for (size_t k = 0; k < id; ++k) {
      double* dst = scratch.pack_in.data() + (t * id + k) * rows;
      for (size_t r = 0; r < rows; ++r) dst[r] = (*inputs[r])[t][k];
    }
  }
  Forward(row_params, static_cast<int>(seq_in), scratch.pack_in.data(),
          scratch.pack_out.data(), scratch);
  for (size_t r = 0; r < rows; ++r) {
    Sequence& seq = (*outputs)[r];
    seq.resize(seq_out);
    for (size_t t = 0; t < seq_out; ++t) {
      seq[t].resize(od);
      for (size_t k = 0; k < od; ++k) {
        seq[t][k] = scratch.pack_out[(t * od + k) * rows + r];
      }
    }
  }
}

}  // namespace tamp::nn
