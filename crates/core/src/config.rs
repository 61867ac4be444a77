//! Mapper configuration (the paper's default parameter set).

use jem_seq::SeqError;
use jem_sketch::{HashFamily, JemParams, SketchScheme};

/// Configuration of a JEM-mapper run.
///
/// Defaults are the paper's (§IV-A-c): `k = 16`, `T = 30`, `w = 100`,
/// `ℓ = 1000`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MapperConfig {
    /// k-mer size.
    pub k: usize,
    /// Minimizer window size `w` (consecutive k-mers per window).
    pub w: usize,
    /// Number of MinHash trials `T`.
    pub trials: usize,
    /// End-segment / interval length ℓ in bases.
    pub ell: usize,
    /// Seed for the a-priori generated hash-function constants.
    pub seed: u64,
}

impl Default for MapperConfig {
    fn default() -> Self {
        MapperConfig {
            k: 16,
            w: 100,
            trials: 30,
            ell: 1000,
            seed: 0x4a45_4d4d,
        }
    }
}

impl MapperConfig {
    /// Validate and expose the embedded sketch parameters.
    pub fn jem_params(&self) -> Result<JemParams, SeqError> {
        if self.trials == 0 {
            return Err(SeqError::InvalidParameter("trials T must be >= 1".into()));
        }
        JemParams::new(self.k, self.w, self.ell)
    }

    /// Generate the `T` hash functions for this configuration.
    pub fn hash_family(&self) -> HashFamily {
        HashFamily::generate(self.trials, self.seed)
    }

    /// Same configuration with a different trial count (Fig. 6 sweeps).
    pub fn with_trials(mut self, t: usize) -> Self {
        self.trials = t;
        self
    }
}

/// How many words [`config_words`] writes.
pub const CONFIG_WORDS: usize = 7;

/// A configuration and its sketch scheme as the words an index header and
/// a served `Info` carry, in this order: k, w, T, ℓ, seed, the scheme tag
/// (0 minimizer, 1 closed syncmer) and the scheme's parameter.
pub fn config_words(config: &MapperConfig, scheme: SketchScheme) -> [u64; CONFIG_WORDS] {
    let (tag, param) = match scheme {
        SketchScheme::Minimizer { w } => (0, w),
        SketchScheme::ClosedSyncmer { s } => (1, s),
    };
    [
        config.k as u64,
        config.w as u64,
        config.trials as u64,
        config.ell as u64,
        config.seed,
        tag,
        param as u64,
    ]
}

/// Decode [`config_words`], refusing what no index can hold: a word past
/// `usize`, a configuration [`MapperConfig::jem_params`] rejects, an
/// unknown scheme tag, or a scheme invalid for its k.
pub fn config_from_words(
    words: &[u64; CONFIG_WORDS],
) -> Result<(MapperConfig, SketchScheme), SeqError> {
    let [k, w, trials, ell, seed, tag, param] = *words;
    let size = |v: u64, what: &str| {
        usize::try_from(v)
            .map_err(|_| SeqError::InvalidParameter(format!("{what} {v} overflows usize")))
    };
    let config = MapperConfig {
        k: size(k, "k")?,
        w: size(w, "w")?,
        trials: size(trials, "trials")?,
        ell: size(ell, "ell")?,
        seed,
    };
    config.jem_params()?;
    let param = size(param, "sketch scheme parameter")?;
    let scheme = match tag {
        0 => SketchScheme::Minimizer { w: param },
        1 => SketchScheme::ClosedSyncmer { s: param },
        other => {
            return Err(SeqError::InvalidParameter(format!(
                "unknown sketch scheme tag {other}"
            )))
        }
    };
    scheme.validate(config.k)?;
    Ok((config, scheme))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_words_round_trip_and_refuse_what_no_index_holds() {
        let config = MapperConfig::default();
        for scheme in [
            SketchScheme::Minimizer { w: 100 },
            SketchScheme::ClosedSyncmer { s: 11 },
        ] {
            let words = config_words(&config, scheme);
            assert_eq!(words[..5], [16, 100, 30, 1000, 0x4a45_4d4d]);
            assert_eq!(config_from_words(&words).unwrap(), (config, scheme));
        }
        let good = config_words(&config, SketchScheme::Minimizer { w: 100 });
        for (at, bad) in [(2, 0), (0, 33), (5, 2), (6, 0)] {
            let mut words = good;
            words[at] = bad;
            assert!(config_from_words(&words).is_err(), "word {at} = {bad}");
        }
    }

    #[test]
    fn defaults_match_paper() {
        let c = MapperConfig::default();
        assert_eq!((c.k, c.w, c.trials, c.ell), (16, 100, 30, 1000));
        assert!(c.jem_params().is_ok());
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(MapperConfig {
            trials: 0,
            ..Default::default()
        }
        .jem_params()
        .is_err());
        assert!(MapperConfig {
            k: 0,
            ..Default::default()
        }
        .jem_params()
        .is_err());
        assert!(MapperConfig {
            k: 33,
            ..Default::default()
        }
        .jem_params()
        .is_err());
        assert!(MapperConfig {
            w: 0,
            ..Default::default()
        }
        .jem_params()
        .is_err());
        assert!(MapperConfig {
            ell: 0,
            ..Default::default()
        }
        .jem_params()
        .is_err());
    }

    #[test]
    fn family_is_deterministic_and_sized() {
        let c = MapperConfig::default();
        let f = c.hash_family();
        assert_eq!(f.len(), 30);
        assert_eq!(f.get(0), c.hash_family().get(0));
    }

    #[test]
    fn with_trials_adjusts_only_t() {
        let c = MapperConfig::default().with_trials(150);
        assert_eq!(c.trials, 150);
        assert_eq!(c.k, 16);
    }
}
