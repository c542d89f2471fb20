//! Property-based tests for the control substrate.

use hcperf_control::{
    AlgebraicDifferentiator, LowPass, MfcConfig, ModelFreeControl, Pid, PidConfig, SlidingWindow,
};
use proptest::prelude::*;

proptest! {
    #[test]
    fn ade_recovers_arbitrary_ramp_slopes(
        slope in -50.0f64..50.0,
        intercept in -100.0f64..100.0,
        window in 2usize..40,
    ) {
        let ts = 0.01;
        let mut ade = AlgebraicDifferentiator::new(ts, window).unwrap();
        let mut est = 0.0;
        for k in 0..(window * 3 + 10) {
            est = ade.push(slope * k as f64 * ts + intercept);
        }
        prop_assert!(
            (est - slope).abs() < 1e-6 * (1.0 + slope.abs()),
            "slope {} estimated as {}", slope, est
        );
    }

    #[test]
    fn ade_constant_signal_gives_zero(
        value in -1e3f64..1e3,
        window in 2usize..30,
    ) {
        let mut ade = AlgebraicDifferentiator::new(0.02, window).unwrap();
        let mut est = 1.0;
        for _ in 0..(window * 2 + 5) {
            est = ade.push(value);
        }
        prop_assert!(est.abs() < 1e-7 * (1.0 + value.abs()));
    }

    #[test]
    fn ade_is_linear(
        a in -5.0f64..5.0,
        b in -5.0f64..5.0,
        scale in -3.0f64..3.0,
    ) {
        // ADE(scale·f) == scale·ADE(f) for the same input sequence.
        let mut ade1 = AlgebraicDifferentiator::new(0.01, 10).unwrap();
        let mut ade2 = AlgebraicDifferentiator::new(0.01, 10).unwrap();
        let f = |t: f64| a * t * t + b * t;
        let mut e1 = 0.0;
        let mut e2 = 0.0;
        for k in 0..60 {
            let t = k as f64 * 0.01;
            e1 = ade1.push(f(t));
            e2 = ade2.push(scale * f(t));
        }
        prop_assert!((e2 - scale * e1).abs() < 1e-9 * (1.0 + e1.abs()));
    }

    #[test]
    fn mfc_u_is_finite_under_bounded_errors(
        errors in proptest::collection::vec(-100.0f64..100.0, 1..200),
        alpha in -10.0f64..-0.01,
        k in -10.0f64..-0.01,
    ) {
        let mut mfc = ModelFreeControl::new(MfcConfig {
            alpha,
            feedback_gain: k,
            sample_period: 0.05,
            ade_window: 4,
        })
        .unwrap();
        for e in errors {
            let u = mfc.step(e);
            prop_assert!(u.is_finite());
        }
    }

    #[test]
    fn pid_output_always_within_limits(
        errors in proptest::collection::vec(-1e4f64..1e4, 1..100),
        lo in -100.0f64..0.0,
        span in 0.0f64..200.0,
    ) {
        let mut pid = Pid::new(PidConfig {
            kp: 3.0,
            ki: 1.0,
            kd: 0.5,
            output_limits: (lo, lo + span),
            integral_limit: 10.0,
        });
        for e in errors {
            let out = pid.step(e, 0.01);
            prop_assert!(out >= lo - 1e-12 && out <= lo + span + 1e-12);
        }
    }

    #[test]
    fn lowpass_output_between_consecutive_extremes(
        inputs in proptest::collection::vec(-100.0f64..100.0, 2..100),
        tau in 0.001f64..5.0,
    ) {
        // A first-order filter never overshoots the [min, max] of the
        // inputs seen so far.
        let mut lp = LowPass::new(tau);
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for x in inputs {
            lo = lo.min(x);
            hi = hi.max(x);
            let y = lp.step(x, 0.01);
            prop_assert!(y >= lo - 1e-9 && y <= hi + 1e-9);
        }
    }

    #[test]
    fn sliding_window_stats_match_reference(
        values in proptest::collection::vec(-50.0f64..50.0, 1..60),
        cap in 1usize..20,
    ) {
        let mut w = SlidingWindow::new(cap);
        for &v in &values {
            w.push(v);
        }
        let kept: Vec<f64> = values[values.len().saturating_sub(cap)..].to_vec();
        let mean_ref = kept.iter().sum::<f64>() / kept.len() as f64;
        let rms_ref =
            (kept.iter().map(|x| x * x).sum::<f64>() / kept.len() as f64).sqrt();
        prop_assert!((w.mean() - mean_ref).abs() < 1e-9);
        prop_assert!((w.rms() - rms_ref).abs() < 1e-9);
        prop_assert_eq!(w.len(), kept.len());
        prop_assert!(w.variance() >= -1e-12);
    }
}
