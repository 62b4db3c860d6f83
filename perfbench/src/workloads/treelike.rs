//! `treelike-sweep`: two warm goals on a 288-fact partial 2-tree through
//! `Engine::evaluate_text`, single-threaded — the unanchored 2-hop goal and
//! an anchored 3-hop goal, whose lineages (about 1,200 and 620 gates) fit
//! the engine's width budget. The op is almost all weighted model counting
//! (the sweep); instance identity is a sliver of it.
//!
//! One op evaluates the two-goal program once. Answers are compared bit
//! for bit with the cold evaluation of a fresh engine made in set-up.

use stuc::Engine;

use super::{
    closed_loop, end_to_end_result, repeat_setup, set_hit_ratios, traced_loop, RunConfig, Stop,
    Timed, PROBE_EVERY, UNTRACED_SHARE,
};
use crate::inputs::{self, TreelikeInputs};
use crate::layers::{identity_us, replay_text};
use crate::report::{LayerValues, RunResult, Tally};
use crate::speed::{Kernel, Speedometer};
use crate::trace::Tracer;

struct State {
    engine: Engine,
    inputs: TreelikeInputs,
}

/// Generates the instance and evaluates both goals cold on a fresh engine.
fn setup(cfg: &RunConfig) -> Result<(State, Vec<f64>), String> {
    let inputs = inputs::treelike(cfg.seed, &cfg.sizes);
    let engine = Engine::new();
    let cold = engine
        .evaluate_text(&inputs.instance, &inputs.program)
        .map_err(|e| format!("cold evaluation: {e}"))?
        .probabilities();
    Ok((State { engine, inputs }, cold))
}

fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

pub fn run(cfg: &RunConfig, tracer: &mut Tracer) -> Result<RunResult, String> {
    let mut tally = Tally::default();
    let mut speed = Speedometer::new(Kernel::Compute, PROBE_EVERY)?;
    let mut reference: Option<Vec<f64>> = None;
    let mut setup_tally = Tally::default();
    let ((state, _), setups) = repeat_setup(cfg.setups(), &mut speed, || {
        let (state, cold) = setup(cfg)?;
        // Every set-up's cold answers must agree bit for bit with the first.
        match &reference {
            None => reference = Some(cold.clone()),
            Some(first) => setup_tally.check(same_bits(first, &cold), || {
                format!("cold answers {cold:?} differ from the first set-up's {first:?}")
            }),
        }
        Ok((state, cold))
    })?;
    tally.merge(setup_tally);
    let reference = reference.expect("at least one set-up ran");
    if reference.iter().any(|&p| p <= 0.0 || p >= 1.0) {
        return Err(format!(
            "answers {reference:?} must lie strictly between 0 and 1"
        ));
    }
    let State { engine, inputs } = state;
    let instance = &inputs.instance;
    let program = &inputs.program;

    let evaluate = || {
        engine
            .evaluate_text(instance, program)
            .map(|o| o.probabilities())
            .map_err(|e| e.to_string())
    };
    let check = |i: u64, got: &[f64], tally: &mut Tally| {
        tally.check(same_bits(got, &reference), || {
            format!("op {i}: {got:?} differs from the cold answers {reference:?}")
        });
    };
    let step = |i: u64, timed: &mut Timed, tally: &mut Tally| {
        let got = timed.time(evaluate)?;
        check(i, &got, tally);
        Ok(())
    };

    if !cfg.trace {
        let stats = closed_loop(Stop::After(cfg.seconds), &mut tally, Some(&mut speed), step)?;
        let e2e = stats.end_to_end(setups);
        let summary = vec![format!(
            "ops {} (two goals each); answers {reference:?}",
            stats.ops()
        )];
        return end_to_end_result(e2e, &speed, tally, summary);
    }

    let mut layers = LayerValues::default();
    let before = engine.cache_stats();
    let untraced = closed_loop(
        Stop::After(cfg.seconds * UNTRACED_SHARE),
        &mut tally,
        None,
        step,
    )?;
    set_hit_ratios(&mut layers, &before, &engine.cache_stats());
    traced_loop(
        cfg.seconds * (1.0 - UNTRACED_SHARE),
        untraced.ops() as u64,
        tracer,
        &mut tally,
        |i, tracer, tally| {
            let (outcome, mut scope) = tracer.op(i, |_| engine.evaluate_text(instance, program));
            let outcome = outcome.map_err(|e| e.to_string())?;
            check(i, &outcome.probabilities(), tally);
            for goal in &outcome.goals {
                scope.count("engine.identity_us", identity_us(&goal.report));
            }
            replay_text(&mut scope, &engine, instance, program)?;
            tracer.finish(scope);
            Ok(())
        },
    );
    layers.from_samples(tracer.samples());
    super::set_overhead(&mut layers, &untraced.latencies_ms(), tracer.samples());
    Ok(RunResult {
        metrics: layers.metrics(),
        tally,
        summary: super::trace_summary(tracer.samples()),
    })
}
