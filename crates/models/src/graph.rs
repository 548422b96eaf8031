//! DNN models as DAGs of operators.

use crate::op::Operator;
use serde::{Deserialize, Serialize};

/// Index of an operator within a [`DnnModel`].
pub type OpId = usize;

/// One node of a model DAG: an operator plus its data-dependency
/// predecessors.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OpNode {
    /// The operator.
    pub op: Operator,
    /// Operators whose outputs feed this one (empty for inputs).
    pub inputs: Vec<OpId>,
}

/// A DNN model: a named DAG of operators plus the per-GPU batch size the
/// evaluation uses for it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DnnModel {
    /// Model name (e.g. "DLRM", "BERT").
    pub name: String,
    /// Operators in topological order (builders always append in dependency
    /// order).
    pub ops: Vec<OpNode>,
    /// Per-GPU batch size used by the evaluation section for this model.
    pub batch_per_gpu: usize,
}

impl DnnModel {
    /// Create an empty model.
    pub fn new(name: impl Into<String>, batch_per_gpu: usize) -> Self {
        DnnModel { name: name.into(), ops: Vec::new(), batch_per_gpu }
    }

    /// Append an operator with the given dependency list and return its id.
    ///
    /// # Panics
    /// Panics if any dependency refers to a not-yet-added operator (the
    /// builder must append in topological order).
    pub fn add_op(&mut self, op: Operator, inputs: Vec<OpId>) -> OpId {
        let id = self.ops.len();
        for &i in &inputs {
            assert!(i < id, "dependencies must precede the operator");
        }
        self.ops.push(OpNode { op, inputs });
        id
    }

    /// Number of operators.
    pub fn num_ops(&self) -> usize {
        self.ops.len()
    }

    /// Total trainable parameter bytes of the whole model.
    pub fn total_param_bytes(&self) -> f64 {
        self.ops.iter().map(|n| n.op.param_bytes()).sum()
    }

    /// Sum of parameter bytes over embedding-table operators only.
    pub fn embedding_param_bytes(&self) -> f64 {
        self.ops.iter().filter(|n| n.op.is_embedding()).map(|n| n.op.param_bytes()).sum()
    }

    /// Sum of parameter bytes over non-embedding ("dense") operators.
    pub fn dense_param_bytes(&self) -> f64 {
        self.total_param_bytes() - self.embedding_param_bytes()
    }

    /// Ids of embedding-table operators.
    pub fn embedding_ops(&self) -> Vec<OpId> {
        self.ops.iter().enumerate().filter(|(_, n)| n.op.is_embedding()).map(|(i, _)| i).collect()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::op::OpKind;

    /// Total forward+backward FLOPs for one sample.
    pub(crate) fn flops_per_sample(m: &DnnModel) -> f64 {
        m.ops.iter().map(|n| n.op.total_flops()).sum()
    }

    /// Verify the stored order is a valid topological order and operator
    /// names are unique.
    pub(crate) fn validate(m: &DnnModel) -> Result<(), String> {
        for (i, n) in m.ops.iter().enumerate() {
            for &dep in &n.inputs {
                if dep >= i {
                    return Err(format!(
                        "operator {} ({}) depends on later operator {}",
                        i, n.op.name, dep
                    ));
                }
            }
        }
        let mut names: Vec<&str> = m.ops.iter().map(|n| n.op.name.as_str()).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        if names.len() != before {
            return Err("duplicate operator names".to_string());
        }
        Ok(())
    }

    fn dense(name: &str, inf: usize, outf: usize) -> Operator {
        Operator::new(name, OpKind::Dense { in_features: inf, out_features: outf })
    }

    #[test]
    fn add_op_and_totals() {
        let mut m = DnnModel::new("toy", 32);
        let a = m.add_op(dense("fc1", 10, 20), vec![]);
        let b = m.add_op(dense("fc2", 20, 5), vec![a]);
        assert_eq!(m.num_ops(), 2);
        assert_eq!(m.ops[b].inputs, vec![a]);
        assert!(m.total_param_bytes() > 0.0);
        assert!(flops_per_sample(&m) > 0.0);
        validate(&m).unwrap();
    }

    #[test]
    #[should_panic]
    fn forward_dependency_panics() {
        let mut m = DnnModel::new("bad", 1);
        m.add_op(dense("fc1", 4, 4), vec![3]);
    }

    #[test]
    fn embedding_vs_dense_split() {
        let mut m = DnnModel::new("mix", 1);
        m.add_op(
            Operator::new("emb", OpKind::Embedding { rows: 1000, dim: 16, lookups: 1 }),
            vec![],
        );
        m.add_op(dense("fc", 16, 16), vec![0]);
        assert_eq!(m.embedding_ops(), vec![0]);
        assert!(m.embedding_param_bytes() > 0.0);
        assert!(m.dense_param_bytes() > 0.0);
        assert!(
            (m.embedding_param_bytes() + m.dense_param_bytes() - m.total_param_bytes()).abs()
                < 1e-9
        );
    }

    #[test]
    fn validate_rejects_duplicate_names() {
        let mut m = DnnModel::new("dup", 1);
        m.add_op(dense("fc", 4, 4), vec![]);
        m.add_op(dense("fc", 4, 4), vec![0]);
        assert!(validate(&m).is_err());
    }
}
