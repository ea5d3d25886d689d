//! Attention / transformer model configuration and operation counting.

use serde::{Deserialize, Serialize};

/// Configuration of one multi-head attention block (and the surrounding
/// transformer encoder, for whole-model operation counts).
///
/// # Examples
///
/// ```
/// use star_attention::AttentionConfig;
///
/// let bert = AttentionConfig::bert_base(128);
/// assert_eq!(bert.num_heads, 12);
/// assert_eq!(bert.d_head(), 64);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct AttentionConfig {
    /// Model (embedding) dimension.
    pub d_model: usize,
    /// Number of attention heads (`d_model` must divide evenly).
    pub num_heads: usize,
    /// Input sequence length.
    pub seq_len: usize,
    /// Number of encoder layers (for whole-model counts).
    pub num_layers: usize,
    /// Feed-forward inner dimension (for whole-model counts).
    pub d_ff: usize,
}

impl AttentionConfig {
    /// BERT-base: 12 layers, 12 heads, d_model 768, d_ff 3072 — the
    /// evaluation model of the paper.
    ///
    /// # Panics
    ///
    /// Panics if `seq_len` is zero.
    pub fn bert_base(seq_len: usize) -> Self {
        assert!(seq_len > 0, "sequence length must be positive");
        AttentionConfig { d_model: 768, num_heads: 12, seq_len, num_layers: 12, d_ff: 3072 }
    }

    /// BERT-large: 24 layers, 16 heads, d_model 1024, d_ff 4096.
    ///
    /// # Panics
    ///
    /// Panics if `seq_len` is zero.
    pub fn bert_large(seq_len: usize) -> Self {
        assert!(seq_len > 0, "sequence length must be positive");
        AttentionConfig { d_model: 1024, num_heads: 16, seq_len, num_layers: 24, d_ff: 4096 }
    }

    /// GPT-2 small geometry: 12 layers, 12 heads, d_model 768, d_ff 3072
    /// (decoder attention runs the same arithmetic; causal masking is
    /// orthogonal to the cost model).
    ///
    /// # Panics
    ///
    /// Panics if `seq_len` is zero.
    pub fn gpt2_small(seq_len: usize) -> Self {
        Self::bert_base(seq_len)
    }

    /// A small configuration for fast functional tests.
    pub fn tiny(seq_len: usize) -> Self {
        assert!(seq_len > 0, "sequence length must be positive");
        AttentionConfig { d_model: 16, num_heads: 2, seq_len, num_layers: 2, d_ff: 32 }
    }

    /// Per-head dimension.
    ///
    /// # Panics
    ///
    /// Panics if `num_heads` does not divide `d_model`.
    pub fn d_head(&self) -> usize {
        assert_eq!(self.d_model % self.num_heads, 0, "heads must divide d_model");
        self.d_model / self.num_heads
    }

    /// Operation counts for one attention block at this configuration.
    pub fn attention_ops(&self) -> OpCounts {
        let n = self.seq_len as u64;
        let d = self.d_model as u64;
        // Q, K, V and output projections: 4 GEMMs of n×d·d (MACs), 2 ops/MAC.
        let proj = 4 * n * d * d * 2;
        // Scores QKᵀ and context P·V, across all heads: each n×n×d_head per
        // head, summed over heads = n·n·d.
        let qk = n * n * d * 2;
        let av = n * n * d * 2;
        // Softmax: n rows of n elements.
        let softmax_elems = n * n;
        OpCounts { proj_ops: proj, qk_ops: qk, av_ops: av, softmax_elems }
    }

    /// Operation counts for the full encoder stack (adds the two FFN GEMMs
    /// per layer and multiplies by `num_layers`).
    pub fn model_ops(&self) -> OpCounts {
        let per_layer = self.attention_ops();
        let n = self.seq_len as u64;
        let ffn = 2 * n * self.d_model as u64 * self.d_ff as u64 * 2;
        OpCounts {
            proj_ops: (per_layer.proj_ops + ffn) * self.num_layers as u64,
            qk_ops: per_layer.qk_ops * self.num_layers as u64,
            av_ops: per_layer.av_ops * self.num_layers as u64,
            softmax_elems: per_layer.softmax_elems * self.num_layers as u64,
        }
    }
}

/// Operation counts of an attention workload, split by component.
///
/// "Ops" are arithmetic operations (1 MAC = 2 ops), the unit behind the
/// paper's GOPs/s/W computing-efficiency metric; `softmax_elems` counts
/// score elements passed through softmax (the softmax engines translate
/// elements into their own op/latency costs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct OpCounts {
    /// Projection GEMM ops (Q/K/V/output, plus FFN for model-level counts).
    pub proj_ops: u64,
    /// `QKᵀ` score GEMM ops.
    pub qk_ops: u64,
    /// `P·V` context GEMM ops.
    pub av_ops: u64,
    /// Score elements passed through softmax.
    pub softmax_elems: u64,
}

impl OpCounts {
    /// All matrix-multiply ops.
    pub fn matmul_ops(&self) -> u64 {
        self.proj_ops + self.qk_ops + self.av_ops
    }

    /// Total ops, counting softmax at ~5 scalar ops per element
    /// (max-compare, subtract, exp, accumulate, divide) — the convention
    /// used when quoting GOPs for attention workloads.
    pub fn total_ops(&self) -> u64 {
        self.matmul_ops() + self.softmax_ops()
    }

    /// Softmax scalar ops under the 5-ops/element convention.
    pub fn softmax_ops(&self) -> u64 {
        self.softmax_elems * 5
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bert_base_shape() {
        let c = AttentionConfig::bert_base(512);
        assert_eq!(c.d_model, 768);
        assert_eq!(c.d_head(), 64);
    }

    #[test]
    fn attention_ops_scaling() {
        let short = AttentionConfig::bert_base(128).attention_ops();
        let long = AttentionConfig::bert_base(256).attention_ops();
        // Projections scale linearly in n, scores quadratically.
        assert_eq!(long.proj_ops, short.proj_ops * 2);
        assert_eq!(long.qk_ops, short.qk_ops * 4);
        assert_eq!(long.softmax_elems, short.softmax_elems * 4);
    }

    #[test]
    fn known_counts_at_128() {
        let c = AttentionConfig::bert_base(128).attention_ops();
        // 4 · 128 · 768² · 2 = 603,979,776
        assert_eq!(c.proj_ops, 603_979_776);
        // 128² · 768 · 2 = 25,165,824
        assert_eq!(c.qk_ops, 25_165_824);
        assert_eq!(c.av_ops, 25_165_824);
        assert_eq!(c.softmax_elems, 16_384);
        assert_eq!(c.total_ops(), c.matmul_ops() + 5 * 16_384);
    }

    #[test]
    fn model_ops_include_ffn() {
        let cfg = AttentionConfig::bert_base(128);
        let layer = cfg.attention_ops();
        let model = cfg.model_ops();
        assert_eq!(model.softmax_elems, layer.softmax_elems * 12);
        assert!(model.proj_ops > layer.proj_ops * 12); // FFN adds more
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_seq_rejected() {
        let _ = AttentionConfig::bert_base(0);
    }

    #[test]
    fn tiny_is_consistent() {
        let c = AttentionConfig::tiny(8);
        assert_eq!(c.d_head(), 8);
        assert!(c.attention_ops().total_ops() > 0);
    }
}
