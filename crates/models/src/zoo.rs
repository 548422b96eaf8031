//! Builders for the six DNN models evaluated in the paper.

use crate::config::{
    BertConfig, CandleConfig, DlrmConfig, ModelPreset, NcfConfig, ResNetConfig, VggConfig,
};
use crate::graph::DnnModel;
use crate::op::{OpKind, Operator};
use serde::{Deserialize, Serialize};

/// The six workloads of §5.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ModelKind {
    /// Deep Learning Recommendation Model.
    Dlrm,
    /// CANDLE Uno (cancer drug response MLP).
    Candle,
    /// BERT transformer encoder.
    Bert,
    /// Neural Collaborative Filtering.
    Ncf,
    /// ResNet-50 image classifier.
    ResNet50,
    /// VGG-16 image classifier.
    Vgg16,
}

impl ModelKind {
    /// All six evaluated models.
    pub fn all() -> [ModelKind; 6] {
        [
            ModelKind::Dlrm,
            ModelKind::Candle,
            ModelKind::Bert,
            ModelKind::Ncf,
            ModelKind::ResNet50,
            ModelKind::Vgg16,
        ]
    }

    /// Display name as used in the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            ModelKind::Dlrm => "DLRM",
            ModelKind::Candle => "CANDLE",
            ModelKind::Bert => "BERT",
            ModelKind::Ncf => "NCF",
            ModelKind::ResNet50 => "ResNet50",
            ModelKind::Vgg16 => "VGG",
        }
    }
}

/// Build one of the six models using the List 1 parameters for the requested
/// paper section.
pub fn build_model(kind: ModelKind, preset: ModelPreset) -> DnnModel {
    match (kind, preset) {
        (ModelKind::Dlrm, ModelPreset::Dedicated) => build_dlrm(&DlrmConfig::dedicated()),
        (ModelKind::Dlrm, ModelPreset::Shared) => build_dlrm(&DlrmConfig::shared()),
        (ModelKind::Dlrm, ModelPreset::Testbed) => build_dlrm(&DlrmConfig::testbed(64)),
        (ModelKind::Candle, ModelPreset::Dedicated) => build_candle(&CandleConfig::dedicated()),
        (ModelKind::Candle, ModelPreset::Shared) => build_candle(&CandleConfig::shared()),
        (ModelKind::Candle, ModelPreset::Testbed) => build_candle(&CandleConfig::testbed()),
        (ModelKind::Bert, ModelPreset::Dedicated) => build_bert(&BertConfig::dedicated()),
        (ModelKind::Bert, ModelPreset::Shared) => build_bert(&BertConfig::shared()),
        (ModelKind::Bert, ModelPreset::Testbed) => build_bert(&BertConfig::testbed()),
        (ModelKind::Ncf, _) => build_ncf(&NcfConfig::dedicated()),
        (ModelKind::ResNet50, ModelPreset::Testbed) => build_resnet50(&ResNetConfig::testbed()),
        (ModelKind::ResNet50, _) => build_resnet50(&ResNetConfig::dedicated()),
        (ModelKind::Vgg16, ModelPreset::Testbed) => build_vgg16(&VggConfig::testbed()),
        (ModelKind::Vgg16, _) => build_vgg16(&VggConfig::dedicated()),
    }
}

/// Build a DLRM: bottom (feature) MLP, embedding tables, dot-product
/// interaction, top (dense) MLP, loss.
pub fn build_dlrm(cfg: &DlrmConfig) -> DnnModel {
    let mut m = DnnModel::new("DLRM", cfg.batch_per_gpu);

    // Bottom MLP processing dense features.
    let mut prev = m.add_op(
        Operator::new(
            "bottom_mlp_0",
            OpKind::Dense {
                in_features: cfg.feature_layer_size,
                out_features: cfg.feature_layer_size,
            },
        ),
        vec![],
    );
    for i in 1..cfg.num_feature_layers {
        prev = m.add_op(
            Operator::new(
                format!("bottom_mlp_{i}"),
                OpKind::Dense {
                    in_features: cfg.feature_layer_size,
                    out_features: if i + 1 == cfg.num_feature_layers {
                        cfg.embedding_dim
                    } else {
                        cfg.feature_layer_size
                    },
                },
            ),
            vec![prev],
        );
    }
    let bottom_out = prev;

    // Embedding tables (the model-parallel candidates).
    let mut table_ids = Vec::new();
    for t in 0..cfg.num_tables {
        let id = m.add_op(
            Operator::new(
                format!("emb_table_{t}"),
                OpKind::Embedding { rows: cfg.embedding_rows, dim: cfg.embedding_dim, lookups: 1 },
            ),
            vec![],
        );
        table_ids.push(id);
    }

    // Dot-product feature interaction over table outputs + bottom MLP output.
    let mut interaction_inputs = table_ids.clone();
    interaction_inputs.push(bottom_out);
    let interaction = m.add_op(
        Operator::new(
            "interaction",
            OpKind::Interaction { num_features: cfg.num_tables + 1, dim: cfg.embedding_dim },
        ),
        interaction_inputs,
    );

    // Top MLP.
    let interaction_out = m.ops[interaction].op.activation_elems() as usize;
    let mut prev = m.add_op(
        Operator::new(
            "top_mlp_0",
            OpKind::Dense { in_features: interaction_out, out_features: cfg.dense_layer_size },
        ),
        vec![interaction],
    );
    for i in 1..cfg.num_dense_layers {
        prev = m.add_op(
            Operator::new(
                format!("top_mlp_{i}"),
                OpKind::Dense {
                    in_features: cfg.dense_layer_size,
                    out_features: cfg.dense_layer_size,
                },
            ),
            vec![prev],
        );
    }
    m.add_op(Operator::new("loss", OpKind::Loss { out_elems: 1 }), vec![prev]);
    m
}

/// Build CANDLE Uno: parallel feature-encoder MLPs feeding a deep dense
/// tower.
pub fn build_candle(cfg: &CandleConfig) -> DnnModel {
    let mut m = DnnModel::new("CANDLE", cfg.batch_per_gpu);
    // Feature encoder layers (sequential MLP over molecular descriptors).
    let mut prev = m.add_op(
        Operator::new(
            "feature_0",
            OpKind::Dense {
                in_features: cfg.feature_layer_size,
                out_features: cfg.feature_layer_size,
            },
        ),
        vec![],
    );
    for i in 1..cfg.num_feature_layers {
        prev = m.add_op(
            Operator::new(
                format!("feature_{i}"),
                OpKind::Dense {
                    in_features: cfg.feature_layer_size,
                    out_features: cfg.feature_layer_size,
                },
            ),
            vec![prev],
        );
    }
    // Dense tower.
    for i in 0..cfg.num_dense_layers {
        prev = m.add_op(
            Operator::new(
                format!("dense_{i}"),
                OpKind::Dense {
                    in_features: if i == 0 { cfg.feature_layer_size } else { cfg.dense_layer_size },
                    out_features: cfg.dense_layer_size,
                },
            ),
            vec![prev],
        );
    }
    m.add_op(Operator::new("loss", OpKind::Loss { out_elems: 1 }), vec![prev]);
    m
}

/// Build a BERT encoder: token embedding, `num_blocks` transformer blocks,
/// pooler + loss.
pub fn build_bert(cfg: &BertConfig) -> DnnModel {
    let mut m = DnnModel::new("BERT", cfg.batch_per_gpu);
    // WordPiece vocabulary of 30k projected to the hidden size.
    let emb = m.add_op(
        Operator::new(
            "token_embedding",
            OpKind::Embedding { rows: 30_522, dim: cfg.hidden, lookups: cfg.seq_len },
        ),
        vec![],
    );
    let mut prev = emb;
    for b in 0..cfg.num_blocks {
        prev = m.add_op(
            Operator::new(
                format!("encoder_block_{b}"),
                OpKind::TransformerBlock {
                    hidden: cfg.hidden,
                    seq_len: cfg.seq_len,
                    heads: cfg.heads,
                    ffn_dim: 4 * cfg.hidden,
                },
            ),
            vec![prev],
        );
    }
    let pooler = m.add_op(
        Operator::new(
            "pooler",
            OpKind::Dense { in_features: cfg.hidden, out_features: cfg.embed_size },
        ),
        vec![prev],
    );
    m.add_op(Operator::new("loss", OpKind::Loss { out_elems: 2 }), vec![pooler]);
    m
}

/// Build NCF: MF and MLP branch embeddings for users and items, an MLP
/// tower, and a fusion layer.
pub fn build_ncf(cfg: &NcfConfig) -> DnnModel {
    let mut m = DnnModel::new("NCF", cfg.batch_per_gpu);
    let mut emb_ids = Vec::new();
    for t in 0..cfg.user_tables_per_branch {
        emb_ids.push(m.add_op(
            Operator::new(
                format!("user_mf_{t}"),
                OpKind::Embedding { rows: cfg.users_per_table, dim: cfg.mf_dim, lookups: 1 },
            ),
            vec![],
        ));
        emb_ids.push(m.add_op(
            Operator::new(
                format!("user_mlp_{t}"),
                OpKind::Embedding { rows: cfg.users_per_table, dim: cfg.mlp_dim, lookups: 1 },
            ),
            vec![],
        ));
    }
    for t in 0..cfg.item_tables_per_branch {
        emb_ids.push(m.add_op(
            Operator::new(
                format!("item_mf_{t}"),
                OpKind::Embedding { rows: cfg.items_per_table, dim: cfg.mf_dim, lookups: 1 },
            ),
            vec![],
        ));
        emb_ids.push(m.add_op(
            Operator::new(
                format!("item_mlp_{t}"),
                OpKind::Embedding { rows: cfg.items_per_table, dim: cfg.mlp_dim, lookups: 1 },
            ),
            vec![],
        ));
    }
    // Concatenate MLP-branch embeddings and run the tower.
    let concat = m.add_op(
        Operator::new(
            "concat",
            OpKind::Pointwise { out_elems: cfg.mlp_dim * 2, flops_per_elem: 1.0 },
        ),
        emb_ids.clone(),
    );
    let mut prev = m.add_op(
        Operator::new(
            "mlp_0",
            OpKind::Dense { in_features: cfg.mlp_dim * 2, out_features: cfg.dense_layer_size },
        ),
        vec![concat],
    );
    for i in 1..cfg.num_dense_layers {
        prev = m.add_op(
            Operator::new(
                format!("mlp_{i}"),
                OpKind::Dense {
                    in_features: cfg.dense_layer_size,
                    out_features: cfg.dense_layer_size,
                },
            ),
            vec![prev],
        );
    }
    // Fuse the MF dot product with the MLP tower output.
    let fusion = m.add_op(
        Operator::new(
            "neumf_fusion",
            OpKind::Dense { in_features: cfg.dense_layer_size + cfg.mf_dim, out_features: 1 },
        ),
        vec![prev],
    );
    m.add_op(Operator::new("loss", OpKind::Loss { out_elems: 1 }), vec![fusion]);
    m
}

/// Build ResNet-50 at 224x224 input: the standard conv1 + four stages of
/// bottleneck blocks (3, 4, 6, 3) + final FC.
pub fn build_resnet50(cfg: &ResNetConfig) -> DnnModel {
    let mut m = DnnModel::new("ResNet50", cfg.batch_per_gpu);
    let mut prev = m.add_op(
        Operator::new(
            "conv1",
            OpKind::Conv2d { in_channels: 3, out_channels: 64, kernel: 7, out_size: 112 },
        ),
        vec![],
    );
    // (blocks, mid_channels, out_channels, spatial)
    let stages: [(usize, usize, usize, usize); 4] =
        [(3, 64, 256, 56), (4, 128, 512, 28), (6, 256, 1024, 14), (3, 512, 2048, 7)];
    let mut in_ch = 64;
    for (s, &(blocks, mid, out, size)) in stages.iter().enumerate() {
        for b in 0..blocks {
            let c_in = if b == 0 { in_ch } else { out };
            prev = m.add_op(
                Operator::new(
                    format!("stage{}_block{}_conv1x1a", s + 2, b),
                    OpKind::Conv2d {
                        in_channels: c_in,
                        out_channels: mid,
                        kernel: 1,
                        out_size: size,
                    },
                ),
                vec![prev],
            );
            prev = m.add_op(
                Operator::new(
                    format!("stage{}_block{}_conv3x3", s + 2, b),
                    OpKind::Conv2d {
                        in_channels: mid,
                        out_channels: mid,
                        kernel: 3,
                        out_size: size,
                    },
                ),
                vec![prev],
            );
            prev = m.add_op(
                Operator::new(
                    format!("stage{}_block{}_conv1x1b", s + 2, b),
                    OpKind::Conv2d {
                        in_channels: mid,
                        out_channels: out,
                        kernel: 1,
                        out_size: size,
                    },
                ),
                vec![prev],
            );
        }
        in_ch = out;
    }
    let pool = m.add_op(
        Operator::new("global_pool", OpKind::Pointwise { out_elems: 2048, flops_per_elem: 49.0 }),
        vec![prev],
    );
    let fc = m.add_op(
        Operator::new("fc", OpKind::Dense { in_features: 2048, out_features: 1000 }),
        vec![pool],
    );
    m.add_op(Operator::new("loss", OpKind::Loss { out_elems: 1000 }), vec![fc]);
    m
}

/// Build VGG-16 at 224x224 input: 13 conv layers + 3 FC layers.
pub fn build_vgg16(cfg: &VggConfig) -> DnnModel {
    let mut m = DnnModel::new("VGG", cfg.batch_per_gpu);
    // (in_channels, out_channels, out_size) per conv layer.
    let convs: [(usize, usize, usize); 13] = [
        (3, 64, 224),
        (64, 64, 224),
        (64, 128, 112),
        (128, 128, 112),
        (128, 256, 56),
        (256, 256, 56),
        (256, 256, 56),
        (256, 512, 28),
        (512, 512, 28),
        (512, 512, 28),
        (512, 512, 14),
        (512, 512, 14),
        (512, 512, 14),
    ];
    let mut prev = None;
    for (i, &(cin, cout, size)) in convs.iter().enumerate() {
        let deps = prev.map(|p| vec![p]).unwrap_or_default();
        let id = m.add_op(
            Operator::new(
                format!("conv_{i}"),
                OpKind::Conv2d { in_channels: cin, out_channels: cout, kernel: 3, out_size: size },
            ),
            deps,
        );
        prev = Some(id);
    }
    let flatten = m.add_op(
        Operator::new("flatten", OpKind::Pointwise { out_elems: 512 * 7 * 7, flops_per_elem: 1.0 }),
        vec![prev.unwrap()],
    );
    let fc1 = m.add_op(
        Operator::new("fc1", OpKind::Dense { in_features: 512 * 7 * 7, out_features: 4096 }),
        vec![flatten],
    );
    let fc2 = m.add_op(
        Operator::new("fc2", OpKind::Dense { in_features: 4096, out_features: 4096 }),
        vec![fc1],
    );
    let fc3 = m.add_op(
        Operator::new("fc3", OpKind::Dense { in_features: 4096, out_features: 1000 }),
        vec![fc2],
    );
    m.add_op(Operator::new("loss", OpKind::Loss { out_elems: 1000 }), vec![fc3]);
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelPreset;
    use crate::graph::tests::{flops_per_sample, validate};

    const GB: f64 = 1.0e9;

    #[test]
    fn all_models_build_and_validate() {
        for kind in ModelKind::all() {
            for preset in [ModelPreset::Dedicated, ModelPreset::Shared, ModelPreset::Testbed] {
                let m = build_model(kind, preset);
                validate(&m).unwrap();
                assert!(m.num_ops() > 3, "{} has too few ops", m.name);
                assert!(m.total_param_bytes() > 0.0);
                assert!(flops_per_sample(&m) > 0.0);
            }
        }
    }

    #[test]
    fn vgg16_has_roughly_138m_params() {
        let m = build_vgg16(&VggConfig::dedicated());
        let params = m.total_param_bytes() / 4.0 / 1.0e6;
        assert!(params > 130.0 && params < 145.0, "VGG16 params = {params}M");
    }

    #[test]
    fn resnet50_has_roughly_25m_params() {
        let m = build_resnet50(&ResNetConfig::dedicated());
        let params = m.total_param_bytes() / 4.0 / 1.0e6;
        // Conv-only accounting (no batch-norm affine / downsample shortcuts)
        // lands slightly under torchvision's 25.6M.
        assert!(params > 19.0 && params < 28.0, "ResNet50 params = {params}M");
    }

    #[test]
    fn dlrm_motivating_example_is_about_22_gb() {
        let m = build_dlrm(&DlrmConfig::motivating_example());
        let gb = m.total_param_bytes() / GB;
        assert!(gb > 20.0 && gb < 24.0, "DLRM motivating example = {gb} GB");
        assert_eq!(m.embedding_ops().len(), 4);
    }

    #[test]
    fn dlrm_dedicated_embeddings_dominate() {
        let m = build_dlrm(&DlrmConfig::dedicated());
        assert_eq!(m.embedding_ops().len(), 64);
        assert!(m.embedding_param_bytes() > 10.0 * m.dense_param_bytes());
    }

    #[test]
    fn bert_dedicated_parameter_count_is_plausible() {
        // 12 blocks of hidden 1024 -> ~150M + embeddings ~31M.
        let m = build_bert(&BertConfig::dedicated());
        let params = m.total_param_bytes() / 4.0 / 1.0e6;
        assert!(params > 120.0 && params < 250.0, "BERT params = {params}M");
    }

    #[test]
    fn ncf_has_128_embedding_tables() {
        let m = build_ncf(&NcfConfig::dedicated());
        assert_eq!(m.embedding_ops().len(), 128);
    }

    #[test]
    fn candle_dedicated_is_mlp_heavy() {
        let m = build_candle(&CandleConfig::dedicated());
        // 24 layers of 16384x16384 fp32 ≈ 24 GB of parameters.
        let gb = m.total_param_bytes() / GB;
        assert!(gb > 20.0, "CANDLE params = {gb} GB");
        assert!(m.embedding_ops().is_empty());
    }

    #[test]
    fn compute_ranking_resnet_lighter_than_vgg() {
        let vgg = build_vgg16(&VggConfig::dedicated());
        let resnet = build_resnet50(&ResNetConfig::dedicated());
        assert!(flops_per_sample(&vgg) > flops_per_sample(&resnet));
        // VGG also has far more parameters (communication heavy vs ResNet).
        assert!(vgg.total_param_bytes() > 3.0 * resnet.total_param_bytes());
    }

    #[test]
    fn model_kind_names_match_paper() {
        assert_eq!(ModelKind::Dlrm.name(), "DLRM");
        assert_eq!(ModelKind::Vgg16.name(), "VGG");
        assert_eq!(ModelKind::all().len(), 6);
    }
}
