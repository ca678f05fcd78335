//! NMCDR hyperparameters and ablation switches.

/// Which pieces of the model are disabled — Table IX's variants plus
/// two design ablations DESIGN.md calls out.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ablation {
    /// `w/o-Igm`: remove the intra node matching component.
    pub no_intra_matching: bool,
    /// `w/o-Cgm`: remove the inter node matching component.
    pub no_inter_matching: bool,
    /// `w/o-Inc`: remove the intra node complementing module.
    pub no_complementing: bool,
    /// `w/o-Sup`: remove the companion objectives (final loss only).
    pub no_companion: bool,
    /// Replace the Eq. 10/16 gates with plain addition.
    pub gate_off: bool,
}

impl Ablation {
    pub fn none() -> Self {
        Self::default()
    }
}

/// Candidate set for the complementing module's virtual links (Eq. 18).
///
/// The paper's notation sums over observed neighbours, but the stated
/// intent is to *complement missing interactions*; the default therefore
/// mixes observed items with sampled non-observed ones. The
/// observed-only variant is kept for ablation (see DESIGN.md,
/// "Substitutions").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ComplementCandidates {
    /// Observed neighbours (up to a cap) plus uniformly sampled
    /// non-observed items, `total` candidates per user.
    ObservedPlusSampled { total: usize, max_observed: usize },
    /// Only observed neighbours, capped (the literal Eq. 18 reading).
    ObservedOnly { max_observed: usize },
}

impl Default for ComplementCandidates {
    fn default() -> Self {
        ComplementCandidates::ObservedPlusSampled {
            total: 16,
            max_observed: 8,
        }
    }
}

/// Full NMCDR configuration. The paper's values (D = D_hge = D_igm =
/// D_cgm = D_ref = 128, K_head = 7, 512 matching neighbours, all loss
/// weights 1) are kept as relative defaults, with the embedding width
/// scaled to the workspace's CPU budget.
#[derive(Debug, Clone)]
pub struct NmcdrConfig {
    /// Embedding and transformation width (the paper uses one width for
    /// D, D_hge, D_igm, D_cgm, D_ref; so do we).
    pub dim: usize,
    /// Head/tail discrimination threshold (Eq. 5; paper: 7).
    pub k_head: usize,
    /// Matching neighbours sampled per bridge (paper default 512,
    /// swept 128–1024 in Fig. 3).
    pub match_neighbors: usize,
    /// Heterogeneous-encoder aggregation layers.
    pub hge_layers: usize,
    /// Intra-to-inter matching passes (paper: 3). Weights are shared
    /// across passes (recurrent application), keeping the parameter
    /// count independent of depth.
    pub matching_layers: usize,
    /// Complementing module passes (paper: 2).
    pub inc_layers: usize,
    /// Companion/final loss weights `w1..w8` (Eq. 22/24; paper: all 1).
    pub loss_weights: [f32; 8],
    /// Complement candidate construction.
    pub complement: ComplementCandidates,
    /// Resample matching graphs and complement candidates every epoch.
    pub resample_each_epoch: bool,
    pub ablation: Ablation,
    pub seed: u64,
}

impl Default for NmcdrConfig {
    fn default() -> Self {
        Self {
            dim: 16,
            k_head: 7,
            match_neighbors: 64,
            hge_layers: 1,
            matching_layers: 1,
            inc_layers: 1,
            loss_weights: [1.0; 8],
            complement: ComplementCandidates::default(),
            resample_each_epoch: true,
            ablation: Ablation::none(),
            seed: 99,
        }
    }
}

impl NmcdrConfig {
    /// Validates internal consistency.
    pub fn validate(&self) -> Result<(), String> {
        if self.dim == 0 {
            return Err("dim must be positive".into());
        }
        if self.match_neighbors == 0 {
            return Err("match_neighbors must be positive".into());
        }
        if self.hge_layers == 0 {
            return Err("hge_layers must be positive".into());
        }
        if self.matching_layers == 0 {
            return Err("matching_layers must be positive".into());
        }
        match self.complement {
            ComplementCandidates::ObservedPlusSampled {
                total,
                max_observed,
            } => {
                if total == 0 || max_observed > total {
                    return Err(format!(
                        "complement: need 0 < max_observed ({max_observed}) <= total ({total})"
                    ));
                }
            }
            ComplementCandidates::ObservedOnly { max_observed } => {
                if max_observed == 0 {
                    return Err("complement: max_observed must be positive".into());
                }
            }
        }
        Ok(())
    }

    /// Returns a copy with every out-of-range knob clamped to its
    /// nearest legal value — the sanitizing counterpart of
    /// [`NmcdrConfig::validate`], for construction paths that must not
    /// panic deep inside a run.
    pub fn clamped(&self) -> Self {
        let mut c = self.clone();
        c.dim = c.dim.max(1);
        c.match_neighbors = c.match_neighbors.max(1);
        c.hge_layers = c.hge_layers.max(1);
        c.matching_layers = c.matching_layers.max(1);
        c.complement = match c.complement {
            ComplementCandidates::ObservedPlusSampled {
                total,
                max_observed,
            } => {
                let total = total.max(1);
                ComplementCandidates::ObservedPlusSampled {
                    total,
                    max_observed: max_observed.min(total),
                }
            }
            ComplementCandidates::ObservedOnly { max_observed } => {
                ComplementCandidates::ObservedOnly {
                    max_observed: max_observed.max(1),
                }
            }
        };
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        NmcdrConfig::default().validate().unwrap();
    }

    #[test]
    fn clamped_always_validates() {
        let mut c = NmcdrConfig {
            dim: 0,
            match_neighbors: 0,
            hge_layers: 0,
            matching_layers: 0,
            complement: ComplementCandidates::ObservedPlusSampled {
                total: 0,
                max_observed: 9,
            },
            ..Default::default()
        };
        assert!(c.validate().is_err());
        c.clamped().validate().expect("clamped config is legal");
        c.complement = ComplementCandidates::ObservedOnly { max_observed: 0 };
        c.clamped().validate().expect("clamped config is legal");
        // an already-valid config passes through unchanged
        let d = NmcdrConfig::default();
        assert_eq!(format!("{:?}", d.clamped()), format!("{d:?}"));
    }

    #[test]
    fn invalid_configs_rejected() {
        let c = NmcdrConfig {
            dim: 0,
            ..Default::default()
        };
        assert!(c.validate().is_err());

        let c = NmcdrConfig {
            complement: ComplementCandidates::ObservedPlusSampled {
                total: 4,
                max_observed: 10,
            },
            ..Default::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn ablation_default_is_full_model() {
        let a = Ablation::none();
        assert!(!a.no_intra_matching && !a.no_inter_matching);
        assert!(!a.no_complementing && !a.no_companion && !a.gate_off);
    }
}
