//! Parallelization strategy representation and heuristic starting points.

use serde::{Deserialize, Serialize};
use topoopt_models::{DnnModel, OpId};

/// How a single operator is parallelized across the job's servers.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum PlacementKind {
    /// The operator (and its parameters) is replicated on every server; the
    /// batch is split across servers (data parallelism). Parameters must be
    /// synchronised by AllReduce each iteration.
    Replicated,
    /// The operator lives on exactly one server (model parallelism), e.g. an
    /// embedding table. Its activations/gradients travel to/from every
    /// server that consumes them.
    Single(usize),
    /// The operator is sharded across the listed servers (each holds a
    /// disjoint slice of the parameters). No AllReduce is needed for the
    /// sharded parameters, but activations are exchanged among the shard
    /// holders and consumers.
    Sharded(Vec<usize>),
}

/// Placement of one operator.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct OpPlacement {
    /// Operator id within the model.
    pub op: OpId,
    /// Placement.
    pub kind: PlacementKind,
}

/// A complete parallelization strategy: one placement per operator, over a
/// job of `num_servers` servers.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ParallelizationStrategy {
    /// Number of servers dedicated to the job.
    pub num_servers: usize,
    /// One entry per model operator, indexed by `OpId`.
    pub placements: Vec<OpPlacement>,
}

impl ParallelizationStrategy {
    /// Pure data parallelism: every operator replicated on every server.
    pub fn pure_data_parallel(model: &DnnModel, num_servers: usize) -> Self {
        let placements = (0..model.num_ops())
            .map(|op| OpPlacement { op, kind: PlacementKind::Replicated })
            .collect();
        ParallelizationStrategy { num_servers, placements }
    }

    /// The hybrid strategy used at Meta for DLRM-style models (§2.1): every
    /// embedding table is placed on a single server (round-robin across the
    /// job's servers), and the rest of the model is replicated.
    pub fn hybrid_embeddings_round_robin(model: &DnnModel, num_servers: usize) -> Self {
        let mut s = Self::pure_data_parallel(model, num_servers);
        for (i, op) in model.embedding_ops().into_iter().enumerate() {
            s.placements[op].kind = PlacementKind::Single(i % num_servers);
        }
        s
    }

    /// The exact §2.1 motivating placement: tables 0..4 on servers 0, 3, 8,
    /// 13 of a 16-server job (used by the Figure 1 heatmap reproduction).
    /// Extra tables (if any) continue round-robin.
    pub fn meta_dlrm_example(model: &DnnModel, num_servers: usize) -> Self {
        let mut s = Self::pure_data_parallel(model, num_servers);
        let anchors = [0usize, 3, 8, 13];
        for (i, op) in model.embedding_ops().into_iter().enumerate() {
            let server = if i < anchors.len() && anchors[i] < num_servers {
                anchors[i]
            } else {
                i % num_servers
            };
            s.placements[op].kind = PlacementKind::Single(server);
        }
        s
    }

    /// Placement of operator `op`.
    pub fn placement(&self, op: OpId) -> &PlacementKind {
        &self.placements[op].kind
    }

    /// Number of operators that are not replicated (i.e. use some form of
    /// model parallelism).
    pub fn num_model_parallel_ops(&self) -> usize {
        self.placements.iter().filter(|p| p.kind != PlacementKind::Replicated).count()
    }

    /// Validate the strategy against a model: one placement per op, all
    /// referenced servers in range, shards non-empty.
    pub fn validate(&self, model: &DnnModel) -> Result<(), String> {
        if self.placements.len() != model.num_ops() {
            return Err(format!(
                "strategy has {} placements but model has {} ops",
                self.placements.len(),
                model.num_ops()
            ));
        }
        for p in &self.placements {
            match &p.kind {
                PlacementKind::Replicated => {}
                PlacementKind::Single(s) => {
                    if *s >= self.num_servers {
                        return Err(format!("op {} placed on out-of-range server {s}", p.op));
                    }
                }
                PlacementKind::Sharded(v) => {
                    if v.is_empty() {
                        return Err(format!("op {} sharded across zero servers", p.op));
                    }
                    if v.iter().any(|&s| s >= self.num_servers) {
                        return Err(format!("op {} sharded onto out-of-range server", p.op));
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use topoopt_models::{build_model, ModelKind, ModelPreset};

    /// Servers that hold (a replica or shard of) operator `op`.
    fn servers_of(s: &ParallelizationStrategy, op: OpId) -> Vec<usize> {
        match s.placement(op) {
            PlacementKind::Replicated => (0..s.num_servers).collect(),
            PlacementKind::Single(server) => vec![*server],
            PlacementKind::Sharded(v) => v.clone(),
        }
    }

    #[test]
    fn pure_data_parallel_replicates_everything() {
        let m = build_model(ModelKind::Vgg16, ModelPreset::Dedicated);
        let s = ParallelizationStrategy::pure_data_parallel(&m, 16);
        s.validate(&m).unwrap();
        assert_eq!(s.num_model_parallel_ops(), 0);
        assert_eq!(servers_of(&s, 0).len(), 16);
    }

    #[test]
    fn hybrid_round_robin_places_embeddings_singly() {
        let m = build_model(ModelKind::Dlrm, ModelPreset::Dedicated);
        let s = ParallelizationStrategy::hybrid_embeddings_round_robin(&m, 16);
        s.validate(&m).unwrap();
        assert_eq!(s.num_model_parallel_ops(), 64);
        for op in m.embedding_ops() {
            assert_eq!(servers_of(&s, op).len(), 1);
        }
    }

    #[test]
    fn meta_example_uses_anchor_servers() {
        let m = build_model(ModelKind::Dlrm, ModelPreset::Shared); // 16 tables
        let s = ParallelizationStrategy::meta_dlrm_example(&m, 16);
        s.validate(&m).unwrap();
        let emb = m.embedding_ops();
        assert_eq!(servers_of(&s, emb[0]), vec![0]);
        assert_eq!(servers_of(&s, emb[1]), vec![3]);
        assert_eq!(servers_of(&s, emb[2]), vec![8]);
        assert_eq!(servers_of(&s, emb[3]), vec![13]);
    }

    #[test]
    fn validate_rejects_out_of_range_server() {
        let m = build_model(ModelKind::Dlrm, ModelPreset::Shared);
        let mut s = ParallelizationStrategy::pure_data_parallel(&m, 4);
        s.placements[0].kind = PlacementKind::Single(9);
        assert!(s.validate(&m).is_err());
    }

    #[test]
    fn validate_rejects_wrong_length() {
        let m = build_model(ModelKind::Bert, ModelPreset::Dedicated);
        let mut s = ParallelizationStrategy::pure_data_parallel(&m, 4);
        s.placements.pop();
        assert!(s.validate(&m).is_err());
    }

    #[test]
    fn sharded_placement_validates() {
        let m = build_model(ModelKind::Bert, ModelPreset::Dedicated);
        let mut s = ParallelizationStrategy::pure_data_parallel(&m, 8);
        s.placements[2].kind = PlacementKind::Sharded(vec![0, 1, 2, 3]);
        s.validate(&m).unwrap();
        assert_eq!(servers_of(&s, 2), vec![0, 1, 2, 3]);
        assert_eq!(s.num_model_parallel_ops(), 1);
    }
}
