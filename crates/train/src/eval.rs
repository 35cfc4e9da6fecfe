//! Evaluation: mean PSNR / SSIM over a benchmark set with the standard SR
//! protocol (Y channel, `scale`-pixel shave).

use scales_data::{upscale, EvalSet};
use scales_metrics::{psnr_y, ssim_y};
use scales_models::SrNetwork;
use scales_serve::{Engine, Precision, Session};
use scales_tensor::Result;

/// Mean PSNR (dB) and SSIM over a set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Score {
    /// Peak signal-to-noise ratio in dB.
    pub psnr: f64,
    /// Structural similarity in `[0, 1]` (can be slightly negative for
    /// anti-correlated images).
    pub ssim: f64,
}

impl Score {
    fn accumulate(scores: &[Score]) -> Score {
        let n = scores.len() as f64;
        Score {
            psnr: scores.iter().map(|s| s.psnr).sum::<f64>() / n,
            ssim: scores.iter().map(|s| s.ssim).sum::<f64>() / n,
        }
    }
}

/// Evaluate a model over an [`EvalSet`] through a training-precision
/// serving engine (bit-identical to forwarding the model directly).
///
/// # Errors
///
/// Propagates forward / metric errors.
pub fn evaluate<M: SrNetwork + ?Sized>(model: &M, set: &EvalSet) -> Result<Score> {
    let engine = Engine::builder().model_ref(model).precision(Precision::Training).build()?;
    evaluate_with(&engine.session(), set)
}

/// Evaluate whatever a serving [`Session`] fronts — training path,
/// auto-lowered deployment graph, any backend — over an [`EvalSet`].
///
/// # Errors
///
/// Propagates forward / metric errors.
pub fn evaluate_with(session: &Session<'_, '_>, set: &EvalSet) -> Result<Score> {
    let shave = set.scale();
    let mut scores = Vec::with_capacity(set.len());
    for pair in set.pairs() {
        let sr = session.super_resolve(&pair.lr)?;
        scores.push(Score {
            psnr: psnr_y(&sr, &pair.hr, shave)?,
            ssim: ssim_y(&sr, &pair.hr, shave)?,
        });
    }
    Ok(Score::accumulate(&scores))
}

/// Evaluate the bicubic-interpolation baseline over an [`EvalSet`].
///
/// # Errors
///
/// Propagates resize / metric errors.
pub fn evaluate_bicubic(set: &EvalSet) -> Result<Score> {
    let shave = set.scale();
    let mut scores = Vec::with_capacity(set.len());
    for pair in set.pairs() {
        let sr = upscale(&pair.lr, set.scale())?;
        scores.push(Score {
            psnr: psnr_y(&sr, &pair.hr, shave)?,
            ssim: ssim_y(&sr, &pair.hr, shave)?,
        });
    }
    Ok(Score::accumulate(&scores))
}

#[cfg(test)]
mod tests {
    use super::*;
    use scales_core::Method;
    use scales_data::Benchmark;
    use scales_models::{srresnet, SrConfig};

    #[test]
    fn bicubic_baseline_is_finite_and_positive() {
        let set = Benchmark::SynSet5.build(2, 32).unwrap();
        let s = evaluate_bicubic(&set).unwrap();
        assert!(s.psnr.is_finite() && s.psnr > 10.0, "psnr {}", s.psnr);
        assert!(s.ssim > 0.3 && s.ssim <= 1.0, "ssim {}", s.ssim);
    }

    #[test]
    fn untrained_model_evaluates() {
        let set = Benchmark::SynSet5.build(2, 32).unwrap();
        let net = srresnet(SrConfig { channels: 8, blocks: 1, scale: 2, method: Method::scales(), seed: 5 }).unwrap();
        let s = evaluate(&net, &set).unwrap();
        assert!(s.psnr.is_finite());
    }

    #[test]
    fn engine_evaluate_matches_direct_super_resolve() {
        use scales_metrics::{psnr_y, ssim_y};
        let set = Benchmark::SynSet5.build(2, 32).unwrap();
        let net = srresnet(SrConfig { channels: 8, blocks: 1, scale: 2, method: Method::scales(), seed: 6 }).unwrap();
        let via_engine = evaluate(&net, &set).unwrap();
        // Reference: forward each image directly, no serving layer.
        let mut scores = Vec::new();
        for pair in set.pairs() {
            let sr = net.super_resolve(&pair.lr).unwrap();
            scores.push(Score {
                psnr: psnr_y(&sr, &pair.hr, set.scale()).unwrap(),
                ssim: ssim_y(&sr, &pair.hr, set.scale()).unwrap(),
            });
        }
        let direct = Score::accumulate(&scores);
        assert_eq!(via_engine.psnr.to_bits(), direct.psnr.to_bits(), "psnr must be bit-identical");
        assert_eq!(via_engine.ssim.to_bits(), direct.ssim.to_bits(), "ssim must be bit-identical");
    }

    #[test]
    fn deployed_session_evaluates_close_to_training() {
        let set = Benchmark::SynSet5.build(2, 32).unwrap();
        let net = srresnet(SrConfig { channels: 8, blocks: 1, scale: 2, method: Method::scales(), seed: 7 }).unwrap();
        let training = evaluate(&net, &set).unwrap();
        let engine = Engine::builder().model_ref(&net).precision(Precision::Deployed).build().unwrap();
        assert_eq!(engine.precision(), Precision::Deployed);
        assert!(engine.lowered().is_some_and(|graph| graph.packed_layers() > 0));
        let deployed = evaluate_with(&engine.session(), &set).unwrap();
        assert!((training.psnr - deployed.psnr).abs() < 0.05, "{} vs {}", training.psnr, deployed.psnr);
        assert!((training.ssim - deployed.ssim).abs() < 0.01);
    }
}
