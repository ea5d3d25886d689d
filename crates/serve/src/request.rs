//! Requests and request classes — the unit of work the serving layer
//! schedules.

use serde::{Deserialize, Serialize};
use star_attention::AttentionConfig;
use std::fmt;

/// The transformer family a request targets. Each kind maps to one of the
/// calibrated [`AttentionConfig`] constructors; the serving layer treats a
/// kind as an opaque cost class.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub enum ModelKind {
    /// BERT-base (12 heads, d_model 768) — the paper's workload.
    #[default]
    BertBase,
    /// BERT-large (16 heads, d_model 1024).
    BertLarge,
    /// GPT-2 small (12 heads, d_model 768).
    Gpt2Small,
    /// The tiny test model (4 heads, d_model 64) — fast unit tests.
    Tiny,
}

impl ModelKind {
    /// The attention configuration at sequence length `seq`.
    pub fn config(self, seq: usize) -> AttentionConfig {
        match self {
            ModelKind::BertBase => AttentionConfig::bert_base(seq),
            ModelKind::BertLarge => AttentionConfig::bert_large(seq),
            ModelKind::Gpt2Small => AttentionConfig::gpt2_small(seq),
            ModelKind::Tiny => AttentionConfig::tiny(seq),
        }
    }

    /// Stable short name used in reports and trace labels.
    pub fn as_str(self) -> &'static str {
        match self {
            ModelKind::BertBase => "bert-base",
            ModelKind::BertLarge => "bert-large",
            ModelKind::Gpt2Small => "gpt2-small",
            ModelKind::Tiny => "tiny",
        }
    }
}

impl fmt::Display for ModelKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A batching equivalence class: requests of the same model and sequence
/// length can share an accelerator invocation (their score rows stream
/// through the same pipeline configuration without reprogramming).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct RequestClass {
    /// Model family.
    pub model: ModelKind,
    /// Sequence length of the attention layer.
    pub seq_len: usize,
}

impl RequestClass {
    /// A new class.
    ///
    /// # Panics
    ///
    /// Panics if `seq_len` is zero.
    pub fn new(model: ModelKind, seq_len: usize) -> Self {
        assert!(seq_len > 0, "sequence length must be positive");
        RequestClass { model, seq_len }
    }

    /// The attention configuration this class executes.
    pub fn config(&self) -> AttentionConfig {
        self.model.config(self.seq_len)
    }
}

impl fmt::Display for RequestClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/seq{}", self.model, self.seq_len)
    }
}

/// One inference request flowing through the serving simulator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Request {
    /// Monotonically increasing id (assignment order = arrival order).
    pub id: u64,
    /// Batching class.
    pub class: RequestClass,
    /// Arrival time (ns since simulation start).
    pub arrive_ns: f64,
    /// Closed-loop client that issued it (`None` for open-loop traffic).
    pub client: Option<usize>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_builds_config() {
        let c = RequestClass::new(ModelKind::BertBase, 128);
        assert_eq!(c.config().seq_len, 128);
        assert_eq!(c.to_string(), "bert-base/seq128");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_seq_rejected() {
        let _ = RequestClass::new(ModelKind::Tiny, 0);
    }

    #[test]
    fn model_kinds_round_trip_serde() {
        for kind in
            [ModelKind::BertBase, ModelKind::BertLarge, ModelKind::Gpt2Small, ModelKind::Tiny]
        {
            let json = serde_json::to_string(&kind).expect("serialize");
            let back: ModelKind = serde_json::from_str(&json).expect("deserialize");
            assert_eq!(kind, back);
            assert!(!kind.as_str().is_empty());
        }
    }
}
